//! 4-level radix page tables stored *inside* simulated physical memory.
//!
//! Both the co-kernel's own x86-64 page tables and the hypervisor's EPT
//! (see [`crate::ept`]) are instances of one generic radix engine,
//! parameterized by an [`EntryFormat`]. Tables live in real [`crate::backing`]
//! memory reached through [`crate::memory::PhysMemory`], so every step of a
//! walk performs an actual dependent load — which is what makes translation
//! overheads *emerge* in the evaluation instead of being constants.
//!
//! Level numbering follows hardware: level 4 is the root (PML4 / EPT PML4),
//! level 1 is the final table (PT). Leaves may appear at level 3 (1 GiB),
//! level 2 (2 MiB) or level 1 (4 KiB).

use crate::addr::{level_shift, GuestVirtAddr, HostPhysAddr, PageSize, PhysRange, PAGE_SIZE_4K};
use crate::error::{HwError, HwResult};
use crate::memory::{MemWindow, PhysMemory};
use parking_lot::Mutex;
use std::sync::Arc;

/// Access kind for permission checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

/// Permissions attached to a leaf mapping. The default allows nothing.
///
/// Word-aligned, so a leaf's rights move as one load and one store. A
/// [`Translation`] the EPT walk cache assembles from a cached line is read
/// back at once by [`Translation::intersect`]; written as three separate
/// bytes and read as one word it stalls the simulating CPU on store
/// forwarding (8 ns on every RandomAccess TLB miss under Covirt).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(align(4))]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// Read+write+execute — what Covirt installs for every owned region
    /// ("All EPT entries are mapped with full access permissions").
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };
    /// Read+write, no execute.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// Read only.
    pub const R: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };

    /// What both `self` and `other` allow.
    #[inline]
    pub fn intersect(self, other: Perms) -> Perms {
        Perms {
            r: self.r && other.r,
            w: self.w && other.w,
            x: self.x && other.x,
        }
    }

    /// Whether these permissions allow `access`.
    #[inline]
    pub fn allows(&self, access: Access) -> bool {
        match access {
            Access::Read => self.r,
            Access::Write => self.w,
            Access::Exec => self.x,
        }
    }
}

/// Encoding of one table-entry format (x86 PTE vs EPT entry).
pub trait EntryFormat {
    /// True if the entry is present/valid at all.
    fn present(entry: u64) -> bool;
    /// True if the entry is a leaf at `level` (large/giant page or level-1 PTE).
    fn leaf(entry: u64, level: u8) -> bool;
    /// Physical address contained in the entry.
    fn frame(entry: u64) -> HostPhysAddr;
    /// Build a non-leaf entry pointing at a child table.
    fn table_entry(child: HostPhysAddr) -> u64;
    /// Build a leaf entry mapping `pa` at `level` with `perms`.
    fn leaf_entry(pa: HostPhysAddr, level: u8, perms: Perms) -> u64;
    /// Whether a leaf entry allows `access`.
    fn entry_allows(entry: u64, access: Access) -> bool;
    /// Permissions recorded in a leaf entry.
    fn entry_perms(entry: u64) -> Perms;
}

/// x86-64 long-mode page-table entries.
pub struct X86Format;

/// x86 PTE bits.
pub mod x86_bits {
    /// Present.
    pub const P: u64 = 1 << 0;
    /// Writable.
    pub const RW: u64 = 1 << 1;
    /// User-accessible.
    pub const US: u64 = 1 << 2;
    /// Page size (large page) — valid at levels 2 and 3.
    pub const PS: u64 = 1 << 7;
    /// No-execute.
    pub const NX: u64 = 1 << 63;
    /// Address mask (bits 12..=51).
    pub const ADDR: u64 = 0x000f_ffff_ffff_f000;
}

impl EntryFormat for X86Format {
    #[inline]
    fn present(entry: u64) -> bool {
        entry & x86_bits::P != 0
    }
    #[inline]
    fn leaf(entry: u64, level: u8) -> bool {
        level == 1 || entry & x86_bits::PS != 0
    }
    #[inline]
    fn frame(entry: u64) -> HostPhysAddr {
        HostPhysAddr::new(entry & x86_bits::ADDR)
    }
    #[inline]
    fn table_entry(child: HostPhysAddr) -> u64 {
        (child.raw() & x86_bits::ADDR) | x86_bits::P | x86_bits::RW | x86_bits::US
    }
    #[inline]
    fn leaf_entry(pa: HostPhysAddr, level: u8, perms: Perms) -> u64 {
        let mut e = (pa.raw() & x86_bits::ADDR) | x86_bits::P | x86_bits::US;
        if perms.w {
            e |= x86_bits::RW;
        }
        if !perms.x {
            e |= x86_bits::NX;
        }
        if level > 1 {
            e |= x86_bits::PS;
        }
        e
    }
    #[inline]
    fn entry_allows(entry: u64, access: Access) -> bool {
        match access {
            Access::Read => true, // present implies readable on x86
            Access::Write => entry & x86_bits::RW != 0,
            Access::Exec => entry & x86_bits::NX == 0,
        }
    }
    #[inline]
    fn entry_perms(entry: u64) -> Perms {
        Perms {
            r: true,
            w: entry & x86_bits::RW != 0,
            x: entry & x86_bits::NX == 0,
        }
    }
}

/// Nested-translation hook for walks. Before the engine loads a table
/// entry it asks the loader to translate the entry's physical address; the
/// direct implementation is the identity, while Covirt's nested loader runs
/// a real EPT walk per entry — so nested walk costs compound exactly as
/// they do on hardware (up to ~24 loads for a 4-level guest walk).
pub trait TableLoad {
    /// Translate the address of a table entry. Returns the (host-)physical
    /// address to read and the number of additional table loads the
    /// translation itself performed.
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> HwResult<(HostPhysAddr, u32)>;

    /// Load a table-entry word that missed the frame-pool fast path. The
    /// default goes straight to physical memory; core-local loaders count
    /// it on a [`crate::memory::RegionCache`] first.
    #[inline]
    fn load_word(&self, mem: &PhysMemory, pa: HostPhysAddr) -> HwResult<u64> {
        mem.read_u64(pa)
    }
}

/// Plain physical loads (no nested translation).
pub struct DirectLoad<'a>(pub &'a PhysMemory);

impl TableLoad for DirectLoad<'_> {
    #[inline]
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> HwResult<(HostPhysAddr, u32)> {
        Ok((pa, 0))
    }
}

/// [`DirectLoad`] with a per-core resolve count: identity nested
/// translation, and entry loads that fall outside the table pool are
/// counted on the core's [`crate::memory::RegionCache`].
pub struct CachedLoad<'a> {
    /// The physical memory to resolve against.
    pub mem: &'a PhysMemory,
    /// The core-local resolve counter.
    pub cache: &'a crate::memory::RegionCache,
}

impl TableLoad for CachedLoad<'_> {
    #[inline]
    fn translate_entry_addr(&self, pa: HostPhysAddr) -> HwResult<(HostPhysAddr, u32)> {
        Ok((pa, 0))
    }

    #[inline]
    fn load_word(&self, mem: &PhysMemory, pa: HostPhysAddr) -> HwResult<u64> {
        let (b, off) = self.cache.resolve(mem, pa, 8)?;
        Ok(b.read_u64(off))
    }
}

/// Result of a successful walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Physical base of the containing page.
    pub page_base: HostPhysAddr,
    /// Size of the containing page.
    pub page_size: PageSize,
    /// Physical address of the requested byte.
    pub pa: HostPhysAddr,
    /// Leaf permissions.
    pub perms: Perms,
    /// Number of table loads the walk performed.
    pub loads: u32,
}

impl Translation {
    /// What a TLB may cache for an address a guest walk translated to `self`
    /// and the EPT then translated to `ept` (`ept.pa` is the host address of
    /// `self.pa`): the smaller of the two pages, based where the EPT put it,
    /// with the rights both leaves grant. The EPT vouched for its own leaf
    /// only — caching the guest's larger one would let later hits reach
    /// guest-physical neighbours the EPT was never asked about.
    #[inline]
    pub fn intersect(&self, ept: &Translation) -> Translation {
        let perms = self.perms.intersect(ept.perms);
        let loads = self.loads + ept.loads;
        // Every benign mapping is this case: the EPT maps the guest leaf
        // where the guest said (identity) under a leaf at least as large,
        // and the rule yields the guest leaf's own geometry. It is tested,
        // not computed through `ept`, so the simulating CPU can start on the
        // fill while the EPT walk's loads are still in flight; computed,
        // every RandomAccess update under Covirt waits for them (+15 % host
        // time; the modelled cost is the same either way).
        if ept.pa == self.pa && ept.page_size >= self.page_size {
            return Translation {
                perms,
                loads,
                ..*self
            };
        }
        let page_size = smaller(self.page_size, ept.page_size);
        Translation {
            page_base: ept.pa.align_down(page_size.bytes()),
            page_size,
            pa: ept.pa,
            perms,
            loads,
        }
    }
}

/// `a.min(b)`, out of line and by value: that is what keeps the test in
/// [`Translation::intersect`] a branch with its operands in registers.
#[cold]
#[inline(never)]
fn smaller(a: PageSize, b: PageSize) -> PageSize {
    a.min(b)
}

/// 9-bit table index of `addr` at `level`.
#[inline]
fn level_index(addr: u64, level: u8) -> u64 {
    (addr >> level_shift(level)) & 0x1ff
}

/// Allocator for table frames carved out of one backed region: a bump
/// pointer over frames never handed out, and a free list of returned ones.
///
/// The pool resolves its region's backing once at construction, so table
/// entry loads during walks are a bounds check plus a word load — the
/// cached-page-table-entry cost regime of real hardware, on which the
/// evaluation's walk-cost ratios depend.
///
/// Every frame it hands out reads zero. A frame is cleaned when it comes
/// back ([`FramePool::free_frame`] zeroes it while its lines are still hot
/// from the owner that just used it), so a returned frame reads
/// not-present until it is reused and goes out again as it came back;
/// only a frame never handed out is zeroed on its way out.
///
/// Several tables may share one pool (every enclave's EPT draws from the
/// controller's node-lifetime pool), and so may structures that are not
/// tables ([`PoolFrame`]). A [`RadixTable`] returns its frames when it
/// drops, so a frame is reachable from at most one live owner; a table
/// that owns its pool outright ([`RadixTable::owning`]) returns none,
/// because the pool and its frames go with it.
pub struct FramePool {
    mem: Arc<PhysMemory>,
    region: PhysRange,
    frames: Mutex<FrameList>,
    backing: Arc<crate::backing::Backing>,
    backing_off: usize,
}

struct FrameList {
    /// Offset of the first frame never handed out.
    next: u64,
    /// Offsets of returned frames, reused before `next` advances.
    free: Vec<u64>,
    /// One bit per frame of the region, set while the frame is out — what
    /// lets [`FramePool::free_frame`] refuse a second return without
    /// scanning `free`.
    out: Box<[u64]>,
}

impl FrameList {
    /// The word and mask of frame `idx` in `out`.
    fn bit(idx: u64) -> (usize, u64) {
        ((idx / 64) as usize, 1 << (idx % 64))
    }
}

impl FramePool {
    /// Build a pool over `region`, which must already be populated.
    pub fn new(mem: Arc<PhysMemory>, region: PhysRange) -> HwResult<Self> {
        let window = mem.window(region)?;
        Ok(Self::over(mem, &window))
    }

    /// Build a pool over a range of `mem` the caller has already resolved.
    pub fn over(mem: Arc<PhysMemory>, window: &MemWindow) -> Self {
        let region = window.range();
        let (backing, backing_off) = window.pinned();
        let frames = region.len / PAGE_SIZE_4K;
        FramePool {
            mem,
            region,
            frames: Mutex::new(FrameList {
                next: 0,
                free: Vec::new(),
                out: vec![0; frames.div_ceil(64) as usize].into_boxed_slice(),
            }),
            backing,
            backing_off,
        }
    }

    /// Fast word load from a pool-resident table frame.
    #[inline]
    pub fn load(&self, pa: HostPhysAddr) -> Option<u64> {
        let off = pa.raw().wrapping_sub(self.region.start.raw());
        if off + 8 <= self.region.len {
            Some(self.backing.read_u64(self.backing_off + off as usize))
        } else {
            None
        }
    }

    /// Fast word store into a pool-resident table frame.
    #[inline]
    pub fn store(&self, pa: HostPhysAddr, value: u64) -> bool {
        let off = pa.raw().wrapping_sub(self.region.start.raw());
        if off + 8 <= self.region.len {
            self.backing
                .write_u64(self.backing_off + off as usize, value);
            true
        } else {
            false
        }
    }

    /// Allocate one zeroed 4 KiB table frame, reusing a returned frame
    /// before touching a fresh one.
    pub fn alloc_frame(&self) -> HwResult<HostPhysAddr> {
        let (frame_off, fresh) = {
            let mut frames = self.frames.lock();
            let (off, fresh) = match frames.free.pop() {
                Some(off) => (off, false),
                None => {
                    let off = frames.next;
                    if off + PAGE_SIZE_4K > self.region.len {
                        return Err(HwError::OutOfMemory {
                            zone: self.mem.zone_of(self.region.start).0,
                            requested: PAGE_SIZE_4K,
                        });
                    }
                    frames.next = off + PAGE_SIZE_4K;
                    (off, true)
                }
            };
            let (word, mask) = FrameList::bit(off / PAGE_SIZE_4K);
            frames.out[word] |= mask;
            (off, fresh)
        };
        let at = self.backing_off + frame_off as usize;
        if fresh {
            // Zero through the pool's own pinned backing: frame allocation
            // is a tight loop at boot, and the region was resolved once at
            // construction. The caller owns the frame exclusively from
            // here, so zeroing needs no lock.
            self.backing.zero(at, PAGE_SIZE_4K as usize);
        } else {
            // `free_frame` cleaned it on the way back.
            debug_assert!(
                (0..PAGE_SIZE_4K as usize)
                    .step_by(8)
                    .all(|i| self.backing.read_u64(at + i) == 0),
                "a returned frame was written after its return"
            );
        }
        Ok(self.region.start.add(frame_off))
    }

    /// Return a frame obtained from [`FramePool::alloc_frame`], zeroing it.
    /// The caller must have unlinked it from every table first: the next
    /// allocation may hand it to another table. An address that is not a
    /// frame this pool has out — foreign, unaligned, never allocated,
    /// already returned — is refused and left untouched, since accepting it
    /// would give one frame two owners.
    pub fn free_frame(&self, pa: HostPhysAddr) -> HwResult<()> {
        let off = pa.raw().wrapping_sub(self.region.start.raw());
        let mut frames = self.frames.lock();
        let (word, mask) = FrameList::bit(off / PAGE_SIZE_4K);
        // Only `alloc_frame` sets a bit: a frame never handed out has a
        // clear one, an address outside the region none (or a spare bit of
        // the last word, never set).
        if !off.is_multiple_of(PAGE_SIZE_4K) || frames.out.get(word).is_none_or(|w| w & mask == 0) {
            return Err(HwError::Invalid("not an outstanding frame of this pool"));
        }
        // Clean under the lock: once on the free list the frame is the next
        // allocation's, and that allocation does not zero it.
        self.backing
            .zero(self.backing_off + off as usize, PAGE_SIZE_4K as usize);
        frames.out[word] &= !mask;
        frames.free.push(off);
        Ok(())
    }

    /// Frames handed out and not yet returned.
    pub fn outstanding(&self) -> u64 {
        let frames = self.frames.lock();
        frames.next / PAGE_SIZE_4K - frames.free.len() as u64
    }

    /// The physical memory the pool carves frames from.
    pub fn memory(&self) -> &Arc<PhysMemory> {
        &self.mem
    }

    /// Take one zeroed frame for a structure of the caller's own, with the
    /// window onto it; it comes back when the [`PoolFrame`] drops.
    pub fn take_frame(self: &Arc<Self>) -> HwResult<PoolFrame> {
        let pa = self.alloc_frame()?;
        let window = self.mem.window(PhysRange::new(pa, PAGE_SIZE_4K));
        let window = window.inspect_err(|_| drop(self.free_frame(pa)))?;
        Ok(PoolFrame {
            pool: Arc::clone(self),
            window,
        })
    }
}

/// One frame of a [`FramePool`] that no table links: a structure its
/// holder formats in it (a hypervisor command queue). The frame goes back
/// to the pool when this drops, so whoever shares the structure shares
/// this through an `Arc` and the last user's drop returns it.
pub struct PoolFrame {
    pool: Arc<FramePool>,
    window: MemWindow,
}

impl PoolFrame {
    /// The window onto the frame's 4 KiB.
    pub fn window(&self) -> &MemWindow {
        &self.window
    }
}

impl Drop for PoolFrame {
    fn drop(&mut self) {
        // Only `take_frame` builds one, from a frame that pool had out.
        let _ = self.pool.free_frame(self.window.base());
    }
}

/// Generic 4-level radix table rooted at a physical frame.
///
/// The table owns every frame it takes from its pool and returns them all
/// when it drops — not earlier, because a walker holding the table may
/// still follow any of them — unless it owns the pool itself
/// ([`RadixTable::owning`]), which then goes with it. Edits of one table
/// are not synchronized with each other; its owner serializes them.
pub struct RadixTable<F: EntryFormat> {
    pool: Arc<FramePool>,
    /// The pool is this table's alone ([`RadixTable::owning`]).
    owns_pool: bool,
    root: HostPhysAddr,
    /// Every frame taken from `pool`, in allocation order (root first).
    frames: Mutex<Vec<HostPhysAddr>>,
    _fmt: std::marker::PhantomData<F>,
}

/// Table frames a table's record has room for before it grows: the root
/// and the tables under it of an enclave's first grants.
const FRAMES_RESERVED: usize = 8;

/// Entries a `map` call logs inline before it spills to the heap: a
/// grant's leaves and the tables linked above them.
const UNDO_INLINE: usize = 32;

/// What a `map` call has changed so far, so a failure can take it back:
/// the entries it overwrote with their old values, in order, and where in
/// the table's frame record its own allocations start. The first
/// [`UNDO_INLINE`] entries are held inline, so a map of a grant allocates
/// nothing.
struct MapUndo {
    inline: [(HostPhysAddr, u64); UNDO_INLINE],
    logged: usize,
    spilled: Vec<(HostPhysAddr, u64)>,
    first_new_frame: usize,
}

impl MapUndo {
    fn new(first_new_frame: usize) -> Self {
        MapUndo {
            inline: [(HostPhysAddr::new(0), 0); UNDO_INLINE],
            logged: 0,
            spilled: Vec::new(),
            first_new_frame,
        }
    }

    /// Log that the entry at `eaddr` held `old`.
    fn push(&mut self, eaddr: HostPhysAddr, old: u64) {
        match self.inline.get_mut(self.logged) {
            Some(slot) => {
                *slot = (eaddr, old);
                self.logged += 1;
            }
            None => self.spilled.push((eaddr, old)),
        }
    }

    /// The logged entries, newest first.
    fn newest_first(&self) -> impl Iterator<Item = &(HostPhysAddr, u64)> {
        let inline = &self.inline[..self.logged];
        self.spilled.iter().rev().chain(inline.iter().rev())
    }
}

impl<F: EntryFormat> RadixTable<F> {
    /// Create an empty table, allocating the root frame from `pool`, which
    /// other tables and structures may share.
    pub fn new(pool: Arc<FramePool>) -> HwResult<Self> {
        Self::build(pool, false)
    }

    /// Create an empty table over a pool of its own (a kernel's page-table
    /// pool, carved out of the kernel's memory). Nothing else takes frames
    /// from the pool, so on drop the table returns none: pool and frames go
    /// together.
    pub fn owning(pool: FramePool) -> HwResult<Self> {
        Self::build(Arc::new(pool), true)
    }

    fn build(pool: Arc<FramePool>, owns_pool: bool) -> HwResult<Self> {
        let root = pool.alloc_frame()?;
        let mut frames = Vec::with_capacity(FRAMES_RESERVED);
        frames.push(root);
        Ok(RadixTable {
            pool,
            owns_pool,
            root,
            frames: Mutex::new(frames),
            _fmt: std::marker::PhantomData,
        })
    }

    /// Take one table frame from the pool and record it as this table's.
    fn alloc_table(&self) -> HwResult<HostPhysAddr> {
        let frame = self.pool.alloc_frame()?;
        self.frames.lock().push(frame);
        Ok(frame)
    }

    /// Physical address of the root table (CR3 / EPTP analogue).
    pub fn root(&self) -> HostPhysAddr {
        self.root
    }

    fn entry_addr(table: HostPhysAddr, idx: u64) -> HostPhysAddr {
        table.add(idx * 8)
    }

    #[inline]
    fn read_entry(&self, pa: HostPhysAddr) -> HwResult<u64> {
        match self.pool.load(pa) {
            Some(v) => Ok(v),
            None => self.pool.memory().read_u64(pa),
        }
    }

    #[inline]
    fn write_entry(&self, pa: HostPhysAddr, value: u64) -> HwResult<()> {
        if self.pool.store(pa, value) {
            Ok(())
        } else {
            self.pool.memory().write_u64(pa, value)
        }
    }

    /// Map `[va, va+len)` to `[pa, pa+len)` with `perms`, using the largest
    /// page size `<= max_level` that alignment and remaining length allow.
    /// `va`, `pa` and `len` must be 4 KiB aligned. All or nothing: on an
    /// error (pool exhausted, collision with a larger page) the table and
    /// the pool are as they were before the call.
    ///
    /// The range is filled by runs: one descent per leaf table it reaches,
    /// then that table's consecutive entries.
    pub fn map(
        &self,
        va: u64,
        pa: HostPhysAddr,
        len: u64,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        if !va.is_multiple_of(PAGE_SIZE_4K)
            || !pa.raw().is_multiple_of(PAGE_SIZE_4K)
            || !len.is_multiple_of(PAGE_SIZE_4K)
        {
            return Err(HwError::Invalid("map arguments must be 4 KiB aligned"));
        }
        let mut undo = MapUndo::new(self.frames.lock().len());
        let mut off = 0u64;
        while off < len {
            let size = Self::leaf_size(va + off, pa.raw() + off, len - off, max_level);
            match self.map_run(va + off, pa.add(off), len - off, size, perms, &mut undo) {
                Ok(mapped) => off += mapped,
                Err(e) => {
                    self.roll_back(undo);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The largest page, of a level `<= max_level`, a mapping of `va` to
    /// `pa` with `remaining` bytes to go may use.
    fn leaf_size(va: u64, pa: u64, remaining: u64, max_level: u8) -> PageSize {
        [PageSize::Size1G, PageSize::Size2M]
            .into_iter()
            .filter(|size| size.level() <= max_level)
            .find(|size| {
                let bytes = size.bytes();
                va.is_multiple_of(bytes) && pa.is_multiple_of(bytes) && remaining >= bytes
            })
            .unwrap_or(PageSize::Size4K)
    }

    /// Undo a failed `map`: restore the overwritten entries newest first,
    /// which unlinks every frame the call allocated, then return those.
    fn roll_back(&self, undo: MapUndo) {
        for &(eaddr, old) in undo.newest_first() {
            // The same store succeeded moments ago on the way in.
            let _ = self.write_entry(eaddr, old);
        }
        for frame in self.frames.lock().split_off(undo.first_new_frame) {
            let _ = self.pool.free_frame(frame);
        }
    }

    /// The table holding `va`'s entry at `level`, linking (and logging)
    /// the tables missing on the way down.
    fn descend(&self, va: u64, level: u8, undo: &mut MapUndo) -> HwResult<HostPhysAddr> {
        let mut table = self.root;
        for cur in (level + 1..=4).rev() {
            let eaddr = Self::entry_addr(table, level_index(va, cur));
            let e = self.read_entry(eaddr)?;
            table = if F::present(e) {
                if F::leaf(e, cur) {
                    return Err(HwError::Invalid(
                        "mapping collides with an existing larger page",
                    ));
                }
                F::frame(e)
            } else {
                let child = self.alloc_table()?;
                undo.push(eaddr, e);
                self.write_entry(eaddr, F::table_entry(child))?;
                child
            };
        }
        Ok(table)
    }

    /// Install leaves of `size` from `va` on, as many as `remaining` holds
    /// and `va`'s table at that level has entries left for, logging each
    /// entry overwritten. Returns the bytes mapped. (The size `leaf_size`
    /// picks cannot change before the table ends: a larger page needs `va` on
    /// a boundary only a table's first entry sits on.)
    fn map_run(
        &self,
        va: u64,
        pa: HostPhysAddr,
        remaining: u64,
        size: PageSize,
        perms: Perms,
        undo: &mut MapUndo,
    ) -> HwResult<u64> {
        let (level, size) = (size.level(), size.bytes());
        let first = level_index(va, level);
        let count = (512 - first).min(remaining / size);
        let table = self.descend(va, level, undo)?;
        for i in 0..count {
            let eaddr = Self::entry_addr(table, first + i);
            undo.push(eaddr, self.read_entry(eaddr)?);
            self.write_entry(eaddr, F::leaf_entry(pa.add(i * size), level, perms))?;
        }
        Ok(count * size)
    }

    /// The page-at-a-time mapper `map` must build the same table as: its
    /// own descent from the root for every leaf.
    #[cfg(test)]
    fn map_one(
        &self,
        va: u64,
        pa: HostPhysAddr,
        level: u8,
        perms: Perms,
        undo: &mut MapUndo,
    ) -> HwResult<()> {
        let mut table = self.root;
        let mut cur = 4u8;
        while cur > level {
            let eaddr = Self::entry_addr(table, level_index(va, cur));
            let e = self.read_entry(eaddr)?;
            let child = if F::present(e) {
                if F::leaf(e, cur) {
                    return Err(HwError::Invalid(
                        "mapping collides with an existing larger page",
                    ));
                }
                F::frame(e)
            } else {
                let child = self.alloc_table()?;
                undo.push(eaddr, e);
                self.write_entry(eaddr, F::table_entry(child))?;
                child
            };
            table = child;
            cur -= 1;
        }
        let eaddr = Self::entry_addr(table, level_index(va, level));
        undo.push(eaddr, self.read_entry(eaddr)?);
        self.write_entry(eaddr, F::leaf_entry(pa, level, perms))?;
        Ok(())
    }

    /// `map` as it was before it filled runs, on top of [`Self::map_one`].
    #[cfg(test)]
    fn map_reference(
        &self,
        va: u64,
        pa: HostPhysAddr,
        len: u64,
        perms: Perms,
        max_level: u8,
    ) -> HwResult<()> {
        let mut undo = MapUndo::new(self.frames.lock().len());
        let mut off = 0u64;
        while off < len {
            let size = Self::leaf_size(va + off, pa.raw() + off, len - off, max_level);
            if let Err(e) = self.map_one(va + off, pa.add(off), size.level(), perms, &mut undo) {
                self.roll_back(undo);
                return Err(e);
            }
            off += size.bytes();
        }
        Ok(())
    }

    /// Remove the mapping of `[va, va+len)`. Large pages partially covered
    /// by the range are split first (allocating frames from the pool).
    /// Unmapped holes inside the range are permitted and skipped.
    pub fn unmap(&self, va: u64, len: u64) -> HwResult<()> {
        if !va.is_multiple_of(PAGE_SIZE_4K) || !len.is_multiple_of(PAGE_SIZE_4K) {
            return Err(HwError::Invalid("unmap arguments must be 4 KiB aligned"));
        }
        let mut off = 0u64;
        while off < len {
            let cva = va + off;
            match self.clear_one(cva, va, len)? {
                Some(step) => off += step,
                None => off += PAGE_SIZE_4K,
            }
        }
        Ok(())
    }

    /// Clear the leaf covering `va`, splitting large pages if the unmap
    /// range does not cover them fully. Returns the bytes cleared.
    fn clear_one(&self, va: u64, range_va: u64, range_len: u64) -> HwResult<Option<u64>> {
        let mut table = self.root;
        let mut level = 4u8;
        loop {
            let eaddr = Self::entry_addr(table, level_index(va, level));
            let e = self.read_entry(eaddr)?;
            if !F::present(e) {
                // Hole: skip to the end of this entry's span.
                let span = 1u64 << level_shift(level);
                let skip = span - (va % span);
                return Ok(Some(skip.min(range_va + range_len - va)));
            }
            if level > 1 && !F::leaf(e, level) {
                table = F::frame(e);
                level -= 1;
                continue;
            }
            // Found the leaf.
            let size = Self::size_of_leaf(va, level)?;
            let (page_size, page_base) = (size.bytes(), size.base_of(va));
            let covered = page_base >= range_va && page_base + page_size <= range_va + range_len;
            if covered || level == 1 {
                self.write_entry(eaddr, 0)?;
                return Ok(Some(page_size - (va - page_base)));
            }
            // Partially covered large page: split into the next level down.
            let child = self.alloc_table()?;
            let child_size = 1u64 << level_shift(level - 1);
            let base_pa = F::frame(e).raw();
            let perms = F::entry_perms(e);
            for i in 0..512u64 {
                let ce = F::leaf_entry(
                    HostPhysAddr::new(base_pa + i * child_size),
                    level - 1,
                    perms,
                );
                self.write_entry(Self::entry_addr(child, i), ce)?;
            }
            self.write_entry(eaddr, F::table_entry(child))?;
            table = child;
            level -= 1;
        }
    }

    /// The size of a leaf entry found at `level` on the way to `va`. Software
    /// that owns the table may set the leaf bit where no page size exists (an
    /// x86 PML4E with PS set); hardware answers that with a page fault, and
    /// so does this — the one a not-present entry at that level raises.
    fn size_of_leaf(va: u64, level: u8) -> HwResult<PageSize> {
        PageSize::from_level(level).ok_or(HwError::PageNotPresent {
            gva: GuestVirtAddr::new(va),
            level,
        })
    }

    /// Walk the table for `va`. Each entry address is first translated
    /// through `loader` (identity natively, a nested EPT walk under
    /// Covirt), then the entry is loaded via the pool fast path.
    #[inline]
    pub fn walk<L: TableLoad>(&self, va: u64, loader: &L) -> HwResult<Translation> {
        self.walk_from(self.root, 4, va, loader).map(|(t, _)| t)
    }

    /// [`walk`](Self::walk) from `table`, the table holding `va`'s entry at
    /// `level` — the root at 4, or a PD page (level 2) an earlier walk
    /// passed. Also returns the PD page this walk passed, if it went through
    /// a level-3 table entry (a PDPTE pointing at one).
    #[inline]
    pub fn walk_from<L: TableLoad>(
        &self,
        mut table: HostPhysAddr,
        mut level: u8,
        va: u64,
        loader: &L,
    ) -> HwResult<(Translation, Option<HostPhysAddr>)> {
        let mut pd = None;
        let mut loads = 0u32;
        loop {
            let eaddr = Self::entry_addr(table, level_index(va, level));
            let (taddr, extra) = loader.translate_entry_addr(eaddr)?;
            // Pool fast path first; off-pool entries go through the loader,
            // which may count them on a core-local resolve counter.
            let e = match self.pool.load(taddr) {
                Some(v) => v,
                None => loader.load_word(self.pool.memory(), taddr)?,
            };
            loads += extra + 1;
            if !F::present(e) {
                return Err(HwError::PageNotPresent {
                    gva: GuestVirtAddr::new(va),
                    level,
                });
            }
            if level > 1 && !F::leaf(e, level) {
                table = F::frame(e);
                if level == 3 {
                    pd = Some(table);
                }
                level -= 1;
                continue;
            }
            let page_size = Self::size_of_leaf(va, level)?;
            let page_base = F::frame(e);
            let t = Translation {
                page_base,
                page_size,
                pa: page_base.add(va % page_size.bytes()),
                perms: F::entry_perms(e),
                loads,
            };
            return Ok((t, pd));
        }
    }

    /// Count leaves per level: `(count_4k, count_2m, count_1g)`.
    pub fn leaf_counts(&self) -> HwResult<(u64, u64, u64)> {
        let mut counts = [0u64; 3];
        self.count_rec(self.root, 4, &mut counts)?;
        Ok((counts[0], counts[1], counts[2]))
    }

    /// Add the leaves under `table` to `counts`, indexed by `PageSize`.
    fn count_rec(&self, table: HostPhysAddr, level: u8, counts: &mut [u64; 3]) -> HwResult<()> {
        for i in 0..512u64 {
            let e = self.read_entry(Self::entry_addr(table, i))?;
            if !F::present(e) {
                continue;
            }
            if F::leaf(e, level) {
                let size =
                    PageSize::from_level(level).ok_or(HwError::Invalid("leaf at level 4"))?;
                counts[size as usize] += 1;
            } else if level > 1 {
                self.count_rec(F::frame(e), level - 1, counts)?;
            }
        }
        Ok(())
    }
}

impl<F: EntryFormat> Drop for RadixTable<F> {
    fn drop(&mut self) {
        if self.owns_pool {
            // The pool goes with the table: nothing would take these
            // frames again, so there is nothing to return or clean.
            return;
        }
        for frame in self.frames.get_mut().drain(..) {
            // Only frames `alloc_frame` returned are recorded, so the pool
            // accepts each; a `Drop` must not panic in any case.
            let _ = self.pool.free_frame(frame);
        }
    }
}

/// Guest (co-kernel) page tables in x86-64 format.
pub type GuestPageTables = RadixTable<X86Format>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_SIZE_1G, PAGE_SIZE_2M};
    use crate::topology::ZoneId;

    const RO: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };

    fn setup() -> (Arc<PhysMemory>, Arc<FramePool>) {
        let mem = Arc::new(PhysMemory::new(&[256 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 8 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region).unwrap());
        (mem, pool)
    }

    #[test]
    fn intersect_is_the_smaller_page_at_the_epts_base_with_both_leaves_rights() {
        let leaf = |base: u64, page_size: PageSize, off: u64, perms| Translation {
            page_base: HostPhysAddr::new(base),
            page_size,
            pa: HostPhysAddr::new(base + off),
            perms,
            loads: 3,
        };
        let off = 5 * PAGE_SIZE_4K + 8;
        let guest = leaf(4 * PAGE_SIZE_2M, PageSize::Size2M, off, Perms::RW);
        // Identity under a leaf at least as large: the guest leaf, less the
        // rights the EPT withholds.
        let t = guest.intersect(&leaf(0, PageSize::Size1G, guest.pa.raw(), RO));
        assert_eq!(
            (t.page_base, t.page_size, t.pa),
            (guest.page_base, PageSize::Size2M, guest.pa)
        );
        assert_eq!((t.perms, t.loads), (RO, 6));
        // A smaller EPT leaf, somewhere else: its page, its address.
        let host = 9 * PAGE_SIZE_2M + 5 * PAGE_SIZE_4K;
        let t = guest.intersect(&leaf(host, PageSize::Size4K, 8, Perms::RWX));
        assert_eq!(
            (t.page_base.raw(), t.page_size, t.pa.raw()),
            (host, PageSize::Size4K, host + 8)
        );
        assert_eq!(t.perms, Perms::RW);
        // As large, but not where the guest thinks: the guest's size there.
        let t = guest.intersect(&leaf(8 * PAGE_SIZE_2M, PageSize::Size2M, off, Perms::RWX));
        assert_eq!(
            (t.page_base.raw(), t.page_size, t.pa.raw()),
            (8 * PAGE_SIZE_2M, PageSize::Size2M, 8 * PAGE_SIZE_2M + off)
        );
    }

    #[test]
    fn identity_map_walk_4k() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem
            .alloc_backed(ZoneId(0), 16 * 4096, PAGE_SIZE_4K)
            .unwrap();
        pt.map(data.start.raw(), data.start, data.len, Perms::RWX, 1)
            .unwrap();
        let t = pt.walk(data.start.raw() + 5000, &DirectLoad(&mem)).unwrap();
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(t.pa.raw(), data.start.raw() + 5000);
        assert_eq!(t.loads, 4);
    }

    #[test]
    fn large_pages_chosen_when_aligned() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem
            .alloc(ZoneId(0), 4 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 3)
            .unwrap();
        let (c4k, c2m, c1g) = pt.leaf_counts().unwrap();
        assert_eq!((c4k, c2m, c1g), (0, 4, 0));
        let t = pt
            .walk(region.start.raw() + PAGE_SIZE_2M + 123, &DirectLoad(&mem))
            .unwrap();
        assert_eq!(t.page_size, PageSize::Size2M);
        assert_eq!(t.loads, 3);
    }

    #[test]
    fn unaligned_tail_uses_smaller_pages() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem
            .alloc(ZoneId(0), PAGE_SIZE_2M + 3 * PAGE_SIZE_4K, PAGE_SIZE_2M)
            .unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 3)
            .unwrap();
        let (c4k, c2m, _) = pt.leaf_counts().unwrap();
        assert_eq!(c2m, 1);
        assert_eq!(c4k, 3);
    }

    #[test]
    fn walk_not_present_fails() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let err = pt.walk(0xdead_0000, &DirectLoad(&mem)).unwrap_err();
        assert!(matches!(err, HwError::PageNotPresent { .. }));
    }

    #[test]
    fn unmap_then_walk_fails() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem.alloc_backed(ZoneId(0), 4 * 4096, PAGE_SIZE_4K).unwrap();
        pt.map(data.start.raw(), data.start, data.len, Perms::RWX, 1)
            .unwrap();
        pt.unmap(data.start.raw(), data.len).unwrap();
        assert!(pt.walk(data.start.raw(), &DirectLoad(&mem)).is_err());
    }

    #[test]
    fn partial_unmap_splits_large_page() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 2)
            .unwrap();
        // Unmap one 4 KiB page in the middle.
        let hole = region.start.raw() + 17 * PAGE_SIZE_4K;
        pt.unmap(hole, PAGE_SIZE_4K).unwrap();
        let mem_loader = DirectLoad(&mem);
        assert!(pt.walk(hole, &mem_loader).is_err());
        // Neighbours still mapped, now via 4 KiB leaves.
        let t = pt.walk(hole - PAGE_SIZE_4K, &mem_loader).unwrap();
        assert_eq!(t.page_size, PageSize::Size4K);
        assert_eq!(t.pa.raw(), hole - PAGE_SIZE_4K);
        let (c4k, c2m, _) = pt.leaf_counts().unwrap();
        assert_eq!(c2m, 0);
        assert_eq!(c4k, 511);
    }

    #[test]
    fn unmap_hole_is_tolerated() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem.alloc(ZoneId(0), 4 * 4096, PAGE_SIZE_4K).unwrap();
        pt.map(data.start.raw(), data.start, 4096, Perms::RWX, 1)
            .unwrap();
        // Range covers pages that were never mapped.
        pt.unmap(data.start.raw(), data.len).unwrap();
        assert!(pt.walk(data.start.raw(), &DirectLoad(&mem)).is_err());
    }

    #[test]
    fn perms_recorded() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let data = mem.alloc(ZoneId(0), 4096, PAGE_SIZE_4K).unwrap();
        pt.map(data.start.raw(), data.start, 4096, RO, 1).unwrap();
        let t = pt.walk(data.start.raw(), &DirectLoad(&mem)).unwrap();
        assert!(t.perms.r && !t.perms.w && !t.perms.x);
    }

    #[test]
    fn giant_page_mapping() {
        let mem = Arc::new(PhysMemory::new(&[4 * 1024 * 1024 * 1024]));
        let pool_region = mem
            .alloc_backed(ZoneId(0), 4 * 1024 * 1024, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region).unwrap());
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_1G, PAGE_SIZE_1G).unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 3)
            .unwrap();
        let (_, _, c1g) = pt.leaf_counts().unwrap();
        assert_eq!(c1g, 1);
        let t = pt
            .walk(region.start.raw() + 12345, &DirectLoad(&mem))
            .unwrap();
        assert_eq!(t.page_size, PageSize::Size1G);
        assert_eq!(t.loads, 2);
    }

    #[test]
    fn returned_frames_are_reused_zeroed_before_fresh_ones() {
        let (_mem, pool) = setup();
        let a = pool.alloc_frame().unwrap();
        let b = pool.alloc_frame().unwrap();
        assert_eq!(pool.outstanding(), 2);
        assert!(pool.store(a.add(8), 0xdead));
        pool.free_frame(a).unwrap();
        assert_eq!(pool.outstanding(), 1);
        // Cleaned on the way back: it reads not-present before any reuse.
        assert_eq!(pool.load(a.add(8)), Some(0));
        // The free list is served before the bump pointer moves, and what
        // it hands out is still zero.
        assert_eq!(pool.alloc_frame().unwrap(), a);
        assert_eq!(pool.load(a.add(8)), Some(0));
        assert_eq!(pool.alloc_frame().unwrap(), b.add(PAGE_SIZE_4K));
        assert_eq!(pool.outstanding(), 3);
    }

    #[test]
    fn free_frame_refuses_what_the_pool_never_handed_out() {
        let (mem, pool) = setup();
        let a = pool.alloc_frame().unwrap();
        assert!(pool.store(a, 0xbeef));
        let outside = mem.alloc(ZoneId(0), PAGE_SIZE_4K, PAGE_SIZE_4K).unwrap();
        for bad in [a.add(8), a.add(PAGE_SIZE_4K), outside.start] {
            assert!(
                matches!(pool.free_frame(bad), Err(HwError::Invalid(_))),
                "{bad:?} accepted"
            );
        }
        // A refused return cleans nothing.
        assert_eq!(pool.load(a), Some(0xbeef));
        assert_eq!(pool.outstanding(), 1);
        pool.free_frame(a).unwrap();
        assert!(pool.free_frame(a).is_err(), "double free accepted");
        assert_eq!(pool.outstanding(), 0);
    }

    /// A taken frame is zeroed, reached through a window of exactly its
    /// 4 KiB, and back in the pool — once — when it drops.
    #[test]
    fn a_taken_frame_is_one_zeroed_page_returned_on_drop() {
        let (_mem, pool) = setup();
        let frame = pool.take_frame().unwrap();
        let w = frame.window();
        assert_eq!(w.len(), PAGE_SIZE_4K);
        assert!(w.base().raw().is_multiple_of(PAGE_SIZE_4K));
        assert_eq!(w.read_u64(w.base().add(PAGE_SIZE_4K - 8)).unwrap(), 0);
        w.write_u64(w.base(), 0xdead).unwrap();
        assert!(w.write_u64(w.base().add(PAGE_SIZE_4K), 1).is_err());
        assert_eq!(pool.outstanding(), 1);
        let base = w.base();
        drop(frame);
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.free_frame(base).is_err(), "returned twice");
        // The next taker gets the same page, zeroed again.
        let again = pool.take_frame().unwrap();
        assert_eq!(again.window().base(), base);
        assert_eq!(again.window().read_u64(base).unwrap(), 0);
    }

    #[test]
    fn dropping_a_table_returns_every_frame_splits_included() {
        let (mem, pool) = setup();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        let pt = GuestPageTables::new(Arc::clone(&pool)).unwrap();
        pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 2)
            .unwrap();
        assert_eq!(pool.outstanding(), 3, "root, PDPT, PD");
        pt.unmap(region.start.raw() + PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        assert_eq!(pool.outstanding(), 4, "the split took a PT frame");
        // A second table on the same pool never sees the first one's frames.
        let other = GuestPageTables::new(Arc::clone(&pool)).unwrap();
        assert!(!pt.frames.lock().contains(&other.root()));
        drop(pt);
        assert_eq!(pool.outstanding(), 1);
        drop(other);
        assert_eq!(pool.outstanding(), 0);
    }

    /// Every frame of a table on a shared pool is back and clean once the
    /// table drops; a table that owns its pool returns nothing and leaves
    /// its frames as they were, because they go with the pool.
    #[test]
    fn a_dropped_table_cleans_its_frames_unless_it_owns_the_pool() {
        let (mem, pool) = setup();
        let region = mem
            .alloc(ZoneId(0), 2 * PAGE_SIZE_2M, PAGE_SIZE_2M)
            .unwrap();
        let map = |pt: &GuestPageTables| {
            // A 2 MiB leaf and, after the split, 4 KiB leaves too.
            pt.map(region.start.raw(), region.start, region.len, Perms::RWX, 2)
                .unwrap();
            pt.unmap(region.start.raw() + PAGE_SIZE_4K, PAGE_SIZE_4K)
                .unwrap();
            pt.frames.lock().clone()
        };
        let dirty = |frame: &HostPhysAddr| {
            (0..PAGE_SIZE_4K)
                .step_by(8)
                .any(|i| mem.read_u64(frame.add(i)).unwrap() != 0)
        };

        let shared = GuestPageTables::new(Arc::clone(&pool)).unwrap();
        let frames = map(&shared);
        assert_eq!(frames.len(), 4, "root, PDPT, PD and the split's PT");
        assert!(frames.iter().all(dirty));
        drop(shared);
        assert_eq!(pool.outstanding(), 0);
        assert!(!frames.iter().any(dirty), "a returned frame reads zero");

        let own = mem
            .alloc_backed(ZoneId(0), 8 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        let owning =
            GuestPageTables::owning(FramePool::new(Arc::clone(&mem), own).unwrap()).unwrap();
        let frames = map(&owning);
        assert!(frames.iter().all(|f| own.contains(*f)));
        drop(owning);
        assert!(frames.iter().all(dirty), "nothing was cleaned or returned");
    }

    #[test]
    fn failed_map_leaves_table_and_pool_as_they_were() {
        let mem = Arc::new(PhysMemory::new(&[64 * 1024 * 1024]));
        // Five frames: root, PDPT, PD and one PT, then one spare.
        let pool_region = mem
            .alloc_backed(ZoneId(0), 5 * PAGE_SIZE_4K, PAGE_SIZE_4K)
            .unwrap();
        let pool = Arc::new(FramePool::new(Arc::clone(&mem), pool_region).unwrap());
        let pt = GuestPageTables::new(Arc::clone(&pool)).unwrap();
        let base = 4 * PAGE_SIZE_2M;
        pt.map(base, HostPhysAddr::new(base), PAGE_SIZE_4K, Perms::RWX, 1)
            .unwrap();
        assert_eq!(pool.outstanding(), 4);
        // Three more 2 MiB slots at 4 KiB granularity want three PT frames;
        // the pool has one. The first slot maps, the second cannot.
        let want = PhysRange::new(HostPhysAddr::new(base + PAGE_SIZE_2M), 3 * PAGE_SIZE_2M);
        let err = pt
            .map(want.start.raw(), want.start, want.len, Perms::RWX, 1)
            .unwrap_err();
        assert!(matches!(err, HwError::OutOfMemory { .. }));
        assert_eq!(pool.outstanding(), 4, "the partial map's frame came back");
        assert_eq!(pt.leaf_counts().unwrap(), (1, 0, 0));
        assert!(pt.walk(want.start.raw(), &DirectLoad(&mem)).is_err());
        assert!(pt.walk(base, &DirectLoad(&mem)).is_ok());
        // A collision is rolled back the same way.
        pt.map(
            base + PAGE_SIZE_1G,
            HostPhysAddr::new(base),
            PAGE_SIZE_4K,
            Perms::RWX,
            1,
        )
        .unwrap_err();
        assert_eq!(pool.outstanding(), 4);
        // And what fits still maps.
        pt.map(want.start.raw(), want.start, PAGE_SIZE_2M, Perms::RWX, 1)
            .unwrap();
        assert_eq!(pool.outstanding(), 5);
    }

    mod frame_ownership_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// The table frames reachable from `pt`'s root, found by walking
        /// the tree — independent of the table's own record.
        fn reachable(pt: &GuestPageTables) -> BTreeSet<u64> {
            fn rec(pt: &GuestPageTables, table: HostPhysAddr, level: u8, out: &mut BTreeSet<u64>) {
                assert!(out.insert(table.raw()), "table frame linked twice");
                for i in 0..512 {
                    let e = pt
                        .read_entry(GuestPageTables::entry_addr(table, i))
                        .unwrap();
                    if X86Format::present(e) && level > 1 && !X86Format::leaf(e, level) {
                        rec(pt, X86Format::frame(e), level - 1, out);
                    }
                }
            }
            let mut out = BTreeSet::new();
            rec(pt, pt.root(), 4, &mut out);
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]
            /// Several tables share one pool through random map/unmap
            /// sequences (4 KiB, 2 MiB and 1 GiB leaves; unmaps that split
            /// 2 MiB and 1 GiB leaves) and are dropped and recreated in
            /// random order. After every step every frame a table's tree
            /// links is in that table's record (the record may hold more:
            /// a large leaf mapped over a subtree unlinks it), no frame is
            /// in two records, and the pool's outstanding count is the sum
            /// of the records; when the last table drops it is 0.
            #[test]
            #[allow(clippy::needless_update)]
            fn a_frame_has_one_owner_and_every_frame_comes_back(
                ops in proptest::collection::vec((0u8..10, 0usize..3, 0u64..2, 0u64..4, 0u64..8), 1..120),
            ) {
                let (_mem, pool) = setup();
                let mut tables: [Option<GuestPageTables>; 3] = [None, None, None];
                for (kind, t, g, m, p) in ops {
                    let slot_1g = PAGE_SIZE_1G * (1 + g);
                    let slot_2m = slot_1g + m * PAGE_SIZE_2M;
                    let page = slot_2m + p * (PAGE_SIZE_2M / 8);
                    let Some(pt) = &tables[t] else {
                        tables[t] = Some(GuestPageTables::new(Arc::clone(&pool)).unwrap());
                        continue;
                    };
                    // A map that collides with a larger leaf is refused
                    // (and rolled back); the sequence just carries on.
                    let map = |va, level| {
                        let len = PageSize::from_level(level).unwrap().bytes();
                        let _ = pt.map(va, HostPhysAddr::new(va), len, Perms::RWX, level);
                    };
                    match kind {
                        0 => tables[t] = None,
                        1 | 2 => map(page, 1),
                        3 | 4 => map(slot_2m, 2),
                        5 => map(slot_1g, 3),
                        // Splits a 2 MiB leaf, or a 1 GiB leaf twice over.
                        6 => pt.unmap(page, PAGE_SIZE_4K).unwrap(),
                        7 => pt.unmap(slot_2m, PAGE_SIZE_2M / 2).unwrap(),
                        // Splits a 1 GiB leaf once.
                        8 => pt.unmap(slot_2m, PAGE_SIZE_2M).unwrap(),
                        _ => pt.unmap(slot_1g, PAGE_SIZE_1G).unwrap(),
                    }

                    let mut owned = BTreeSet::new();
                    for pt in tables.iter().flatten() {
                        let linked = reachable(pt);
                        let recorded: BTreeSet<u64> =
                            pt.frames.lock().iter().map(|f| f.raw()).collect();
                        prop_assert!(
                            linked.is_subset(&recorded),
                            "tree links {:x?}, record holds only {:x?}",
                            linked,
                            recorded
                        );
                        for f in recorded {
                            prop_assert!(owned.insert(f), "frame {:#x} live in two tables", f);
                        }
                    }
                    prop_assert_eq!(pool.outstanding(), owned.len() as u64);
                }
                drop(tables);
                prop_assert_eq!(pool.outstanding(), 0);
            }
        }
    }

    #[allow(clippy::needless_update)]
    mod run_fill_props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// A table on a pool of `frames` frames in a memory of its own, so
        /// two of them hand out the same frame addresses in the same order.
        fn table(frames: u64) -> (Arc<PhysMemory>, Arc<FramePool>, GuestPageTables) {
            let mem = Arc::new(PhysMemory::new(&[64 * 1024 * 1024]));
            let region = mem
                .alloc_backed(ZoneId(0), frames * PAGE_SIZE_4K, PAGE_SIZE_4K)
                .unwrap();
            let pool = Arc::new(FramePool::new(Arc::clone(&mem), region).unwrap());
            let pt = GuestPageTables::new(Arc::clone(&pool)).unwrap();
            (mem, pool, pt)
        }

        /// Every table frame linked from the root, with its 512 entries.
        fn tree(pt: &GuestPageTables) -> BTreeMap<u64, Vec<u64>> {
            fn rec(
                pt: &GuestPageTables,
                table: HostPhysAddr,
                level: u8,
                out: &mut BTreeMap<u64, Vec<u64>>,
            ) {
                let entries: Vec<u64> = (0..512)
                    .map(|i| {
                        pt.read_entry(GuestPageTables::entry_addr(table, i))
                            .unwrap()
                    })
                    .collect();
                for &e in &entries {
                    if X86Format::present(e) && level > 1 && !X86Format::leaf(e, level) {
                        rec(pt, X86Format::frame(e), level - 1, out);
                    }
                }
                out.insert(table.raw(), entries);
            }
            let mut out = BTreeMap::new();
            rec(pt, pt.root(), 4, &mut out);
            out
        }

        /// Slots next to the table boundaries, and one in the middle.
        const EDGES: [u64; 6] = [0, 1, 255, 509, 510, 511];

        /// `(va, pa, len, max_level)` of a range. `at` picks the 1 GiB
        /// slot, the 2 MiB slot in it and the page in that, the last two
        /// near a table's ends; `skew` shifts `pa` off `va`'s 2 MiB (1) or
        /// 1 GiB (2) alignment; `size` picks pages only, whole 2 MiB slots
        /// plus pages, or a 1 GiB slot plus both — so a range starts and
        /// stops mid-table and crosses PT, PD and PDPT-entry boundaries.
        fn range(
            at: (u64, usize, usize),
            skew: u8,
            size: (u8, u64, u64),
            max_level: u8,
        ) -> (u64, HostPhysAddr, u64, u8) {
            let va = ((1 + at.0) << 30) | (EDGES[at.1] << 21) | (EDGES[at.2] << 12);
            let (class, slots, pages) = size;
            let (len, skew, max_level) = match class {
                0 => (pages * PAGE_SIZE_4K, skew, max_level),
                1 => (slots * PAGE_SIZE_2M + pages * PAGE_SIZE_4K, skew, max_level),
                // 1 GiB and more: never a page at a time, to keep a case
                // in the milliseconds.
                _ => (
                    PAGE_SIZE_1G + slots * PAGE_SIZE_2M + pages * PAGE_SIZE_4K,
                    skew.min(1) * 2,
                    max_level.max(2),
                ),
            };
            let pa = va + [0, PAGE_SIZE_4K, PAGE_SIZE_2M][skew as usize];
            (va, HostPhysAddr::new(pa), len.max(PAGE_SIZE_4K), max_level)
        }

        /// Addresses where two mappings of `[va, va + len)` could part:
        /// its ends and the first and last 2 MiB and 1 GiB boundaries in
        /// it, each with the page before.
        fn probes(va: u64, len: u64) -> Vec<u64> {
            let end = va + len;
            let mut at = vec![
                va - PAGE_SIZE_4K,
                va,
                va + PAGE_SIZE_4K,
                end - PAGE_SIZE_4K,
                end,
            ];
            for size in [PAGE_SIZE_2M, PAGE_SIZE_1G] {
                let (first, last) = (va.next_multiple_of(size), end / size * size);
                for b in [first, first + size, last] {
                    if b > va && b < end {
                        at.extend([b - PAGE_SIZE_4K, b, b + size / 2]);
                    }
                }
            }
            at
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
            /// The same maps and unmaps applied by `map` (runs) to one
            /// table and by the page-at-a-time reference to another leave
            /// the same table: same verdict per call, same leaves per
            /// level, same frames out of the pool, same walk at every
            /// probe, and in the end the same entries in the same frames.
            /// Sixteen frames run dry in about one call in ten and one in
            /// five collides with a larger page, so failed calls and their
            /// rollbacks are compared too.
            #[test]
            fn run_filling_map_builds_the_table_the_page_at_a_time_mapper_builds(
                ops in proptest::collection::vec(
                    (
                        any::<bool>(),
                        (0u64..2, 0usize..6, 0usize..6),
                        0u8..3,
                        (0u8..3, 1u64..4, 0u64..40),
                        1u8..4,
                    ),
                    1..24,
                ),
            ) {
                let (fast_mem, fast_pool, fast) = table(16);
                let (slow_mem, slow_pool, slow) = table(16);
                for (unmap, at, skew, size, max_level) in ops {
                    let (va, pa, len, max_level) = range(at, skew, size, max_level);
                    if unmap {
                        prop_assert_eq!(fast.unmap(va, len), slow.unmap(va, len));
                    } else {
                        let verdict = fast.map(va, pa, len, Perms::RW, max_level);
                        prop_assert_eq!(
                            &verdict,
                            &slow.map_reference(va, pa, len, Perms::RW, max_level),
                            "map({:#x}, {:?}, {:#x}, level {})", va, pa, len, max_level
                        );
                    }
                    prop_assert_eq!(fast.leaf_counts(), slow.leaf_counts());
                    prop_assert_eq!(fast_pool.outstanding(), slow_pool.outstanding());
                    prop_assert_eq!(&*fast.frames.lock(), &*slow.frames.lock());
                    for probe in probes(va, len) {
                        prop_assert_eq!(
                            fast.walk(probe, &DirectLoad(&fast_mem)),
                            slow.walk(probe, &DirectLoad(&slow_mem)),
                            "walk({:#x}) after {:#x}+{:#x} level {}", probe, va, len, max_level
                        );
                    }
                }
                prop_assert!(tree(&fast) == tree(&slow), "same calls, different entries");
            }

            /// A pool that runs dry part-way through a run — in the middle
            /// of a leaf table's entries, or linking the next table — gets
            /// every frame back and the table is entry for entry what it
            /// was, whatever was mapped before.
            #[test]
            fn a_pool_exhausted_mid_run_restores_table_and_pool_exactly(
                frames in 6u64..14,
                before in (0usize..6, 1u64..40),
                at in (0usize..6, 0usize..6),
                skew in 0u8..2,
            ) {
                let (mem, pool, pt) = table(frames);
                // Something to keep: a few pages the failed map may run
                // into, share tables with and overwrite.
                let (kept_va, kept_pa, kept_len, _) = range((0, 0, before.0), 0, (0, 0, before.1), 1);
                pt.map(kept_va, kept_pa, kept_len, RO, 1).unwrap();
                let was = (tree(&pt), pt.frames.lock().clone(), pool.outstanding());

                // 4 KiB-granular and 12 leaf tables long: more than the pool holds.
                let (va, pa, _, _) = range((0, at.0, at.1), skew, (0, 0, 1), 1);
                let err = pt.map(va, pa, 12 * PAGE_SIZE_2M, Perms::RW, 1).unwrap_err();
                prop_assert!(matches!(err, HwError::OutOfMemory { .. }), "{:?}", err);
                prop_assert!(
                    (tree(&pt), pt.frames.lock().clone(), pool.outstanding()) == was,
                    "a failed map left its mark"
                );
                let kept = pt.walk(kept_va, &DirectLoad(&mem)).unwrap();
                prop_assert_eq!((kept.pa, kept.perms), (kept_pa, RO));
                // What the pool can hold still maps.
                pt.map(va, pa, PAGE_SIZE_4K, Perms::RW, 1).unwrap();
            }
        }
    }

    #[test]
    fn map_collision_with_larger_page_rejected() {
        let (mem, pool) = setup();
        let pt = GuestPageTables::new(pool).unwrap();
        let region = mem.alloc(ZoneId(0), PAGE_SIZE_2M, PAGE_SIZE_2M).unwrap();
        pt.map(
            region.start.raw(),
            region.start,
            PAGE_SIZE_2M,
            Perms::RWX,
            2,
        )
        .unwrap();
        let err = pt
            .map(
                region.start.raw() + PAGE_SIZE_4K,
                region.start,
                PAGE_SIZE_4K,
                Perms::RWX,
                1,
            )
            .unwrap_err();
        assert!(matches!(err, HwError::Invalid(_)));
        let _ = mem;
    }
}
