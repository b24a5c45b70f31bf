//! Covirt's ioctl extension — the userspace management ABI.
//!
//! "The userspace control module piggy-backs on the Pisces kernel ABI by
//! adding a new set of ioctl commands that can be used to pass
//! configuration update information into the kernel." This module is that
//! command set: it registers one extension number in the Pisces dispatcher
//! and multiplexes Covirt operations over wire-encoded payloads, so an
//! operator tool can query configurations, read the fault log and exit
//! statistics, manage cross-enclave IPI grants, and kill a wedged enclave
//! through the same `/dev/pisces` path as everything else.

use crate::boot::{decode_config, encode_config};
use crate::cmdqueue::Command;
use crate::controller::CovirtController;
use covirt_simhw::interconnect::{DeliveryMode, IpiDest};
use pisces::ioctl::{IoctlDispatcher, IoctlExtension, EXTENSION_BASE};
use pisces::wire::{WireReader, WireWriter};
use pisces::{PiscesError, PiscesResult};
use std::sync::Arc;

/// The Covirt extension command number.
pub const COVIRT_IOCTL: u32 = EXTENSION_BASE + 0xC0;

/// Sub-commands multiplexed over [`COVIRT_IOCTL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CovirtCtl {
    /// Query the feature configuration of an enclave's context.
    ConfigQuery = 1,
    /// Read the exit-statistics table of an enclave.
    ExitStats = 2,
    /// Read the global fault log.
    FaultLog = 3,
    /// Grant a cross-enclave (core, vector) IPI pair.
    WhitelistGrant = 4,
    /// Revoke a cross-enclave grant.
    WhitelistRevoke = 5,
    /// Terminate an enclave via its command queues (the operator's
    /// kill switch for a wedged guest).
    Terminate = 6,
}

/// The extension handler, holding the controller it manages.
pub struct CovirtIoctl {
    controller: Arc<CovirtController>,
    node: Arc<covirt_simhw::node::SimNode>,
}

impl CovirtIoctl {
    /// Register the Covirt command set with a Pisces dispatcher.
    pub fn register(
        dispatcher: &IoctlDispatcher,
        controller: Arc<CovirtController>,
        node: Arc<covirt_simhw::node::SimNode>,
    ) -> PiscesResult<()> {
        dispatcher.register_extension(COVIRT_IOCTL, Arc::new(CovirtIoctl { controller, node }))
    }

    fn config_query(&self, r: &mut WireReader) -> PiscesResult<Vec<u8>> {
        let enclave = r.get_u64().map_err(|_| PiscesError::Invalid("payload"))?;
        let vctx = self
            .controller
            .context(enclave)
            .map_err(|_| PiscesError::NoSuchEnclave(enclave))?;
        let mut w = WireWriter::new();
        w.put_u64(encode_config(vctx.config));
        w.put_u64(vctx.ept.as_ref().map(|e| e.eptp().raw()).unwrap_or(0));
        w.put_u64(vctx.live_cores().len() as u64);
        Ok(w.finish())
    }

    fn exit_stats(&self, r: &mut WireReader) -> PiscesResult<Vec<u8>> {
        let enclave = r.get_u64().map_err(|_| PiscesError::Invalid("payload"))?;
        let vctx = self
            .controller
            .context(enclave)
            .map_err(|_| PiscesError::NoSuchEnclave(enclave))?;
        let mut stats: Vec<(&'static str, u64)> = vctx.exit_counts().into_iter().collect();
        stats.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut w = WireWriter::new();
        w.put_u64(stats.len() as u64);
        for (name, count) in stats {
            w.put_str(name).put_u64(count);
        }
        Ok(w.finish())
    }

    fn fault_log(&self) -> Vec<u8> {
        let reports = self.controller.faults.all();
        let mut w = WireWriter::new();
        w.put_u64(reports.len() as u64);
        for rep in reports {
            w.put_u64(rep.enclave)
                .put_u64(rep.core as u64)
                .put_u64(rep.tsc)
                .put_str(&rep.reason);
        }
        w.finish()
    }

    fn whitelist_edit(&self, r: &mut WireReader, grant: bool) -> PiscesResult<Vec<u8>> {
        let enclave = r.get_u64().map_err(|_| PiscesError::Invalid("payload"))?;
        let core = r.get_u64().map_err(|_| PiscesError::Invalid("payload"))? as usize;
        let vector = r.get_u8().map_err(|_| PiscesError::Invalid("payload"))?;
        let vctx = self
            .controller
            .context(enclave)
            .map_err(|_| PiscesError::NoSuchEnclave(enclave))?;
        if grant {
            vctx.whitelist.grant(core, vector);
        } else {
            vctx.whitelist.revoke(core, vector);
        }
        Ok(Vec::new())
    }

    fn terminate(&self, r: &mut WireReader) -> PiscesResult<Vec<u8>> {
        let enclave = r.get_u64().map_err(|_| PiscesError::Invalid("payload"))?;
        let vctx = self
            .controller
            .context(enclave)
            .map_err(|_| PiscesError::NoSuchEnclave(enclave))?;
        // Post Terminate to each live core and kick it with an NMI; cores
        // that never entered guest mode need no coercion.
        for (core, q, _) in vctx.live_slots() {
            q.post(Command::Terminate)
                .map_err(|_| PiscesError::ResourceBusy("command queue full"))?;
            self.node
                .interconnect
                .send(0, IpiDest::Core(core), DeliveryMode::Nmi)
                .map_err(PiscesError::Hw)?;
        }
        Ok(Vec::new())
    }
}

impl IoctlExtension for CovirtIoctl {
    fn handle(&self, _nr: u32, payload: &[u8]) -> PiscesResult<Vec<u8>> {
        let mut r = WireReader::new(payload);
        let sub = r
            .get_u64()
            .map_err(|_| PiscesError::Invalid("missing sub-command"))?;
        match sub {
            x if x == CovirtCtl::ConfigQuery as u64 => self.config_query(&mut r),
            x if x == CovirtCtl::ExitStats as u64 => self.exit_stats(&mut r),
            x if x == CovirtCtl::FaultLog as u64 => Ok(self.fault_log()),
            x if x == CovirtCtl::WhitelistGrant as u64 => self.whitelist_edit(&mut r, true),
            x if x == CovirtCtl::WhitelistRevoke as u64 => self.whitelist_edit(&mut r, false),
            x if x == CovirtCtl::Terminate as u64 => self.terminate(&mut r),
            _ => Err(PiscesError::Invalid("unknown covirt sub-command")),
        }
    }
}

/// Client-side helpers (what the operator tool links against).
pub mod client {
    use super::*;

    /// Build a ConfigQuery payload.
    pub fn config_query(enclave: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(CovirtCtl::ConfigQuery as u64).put_u64(enclave);
        w.finish()
    }

    /// Parse a ConfigQuery reply into (config, eptp, live core count).
    pub fn parse_config_reply(buf: &[u8]) -> Option<(crate::config::CovirtConfig, u64, u64)> {
        let mut r = WireReader::new(buf);
        Some((
            decode_config(r.get_u64().ok()?),
            r.get_u64().ok()?,
            r.get_u64().ok()?,
        ))
    }

    /// Build an ExitStats payload.
    pub fn exit_stats(enclave: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(CovirtCtl::ExitStats as u64).put_u64(enclave);
        w.finish()
    }

    /// Parse an ExitStats reply into (reason, count) rows.
    pub fn parse_exit_stats(buf: &[u8]) -> Option<Vec<(String, u64)>> {
        let mut r = WireReader::new(buf);
        let n = r.get_u64().ok()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((r.get_str().ok()?, r.get_u64().ok()?));
        }
        Some(out)
    }

    /// Build a FaultLog payload.
    pub fn fault_log() -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(CovirtCtl::FaultLog as u64);
        w.finish()
    }

    /// Parse a FaultLog reply into (enclave, core, tsc, reason) rows.
    pub fn parse_fault_log(buf: &[u8]) -> Option<Vec<(u64, u64, u64, String)>> {
        let mut r = WireReader::new(buf);
        let n = r.get_u64().ok()? as usize;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((
                r.get_u64().ok()?,
                r.get_u64().ok()?,
                r.get_u64().ok()?,
                r.get_str().ok()?,
            ));
        }
        Some(out)
    }

    /// Build a whitelist grant/revoke payload.
    pub fn whitelist(enclave: u64, core: usize, vector: u8, grant: bool) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(if grant {
            CovirtCtl::WhitelistGrant as u64
        } else {
            CovirtCtl::WhitelistRevoke as u64
        })
        .put_u64(enclave)
        .put_u64(core as u64)
        .put_u8(vector);
        w.finish()
    }

    /// Build a Terminate payload.
    pub fn terminate(enclave: u64) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u64(CovirtCtl::Terminate as u64).put_u64(enclave);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CovirtConfig;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::topology::{CoreId, ZoneId};
    use hobbes::MasterControl;
    use pisces::resources::ResourceRequest;

    fn setup() -> (
        Arc<MasterControl>,
        Arc<CovirtController>,
        IoctlDispatcher,
        u64,
    ) {
        let node = SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM_IPI);
        ctl.attach_hobbes(&master);
        let d = IoctlDispatcher::new(Arc::clone(master.pisces()));
        CovirtIoctl::register(&d, Arc::clone(&ctl), node).unwrap();
        let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
        let (e, _k) = master.bring_up_enclave("ioctl", &req).unwrap();
        let id = e.id.0;
        (master, ctl, d, id)
    }

    #[test]
    fn config_query_roundtrip() {
        let (_m, _c, d, id) = setup();
        let reply = d
            .ioctl_raw(COVIRT_IOCTL, &client::config_query(id))
            .unwrap();
        let (cfg, eptp, live) = client::parse_config_reply(&reply).unwrap();
        assert_eq!(cfg, CovirtConfig::MEM_IPI);
        assert_ne!(eptp, 0);
        assert_eq!(live, 0);
    }

    #[test]
    fn exit_stats_roundtrip() {
        let (_m, c, d, id) = setup();
        // Record a synthetic exit so the table is non-empty.
        let vctx = c.context(id).unwrap();
        vctx.vmcs(1)
            .unwrap()
            .write()
            .record_exit(covirt_simhw::exit::ExitInfo {
                reason: covirt_simhw::exit::ExitReason::Hlt,
                tsc: 1,
            });
        let reply = d.ioctl_raw(COVIRT_IOCTL, &client::exit_stats(id)).unwrap();
        let rows = client::parse_exit_stats(&reply).unwrap();
        assert_eq!(rows, vec![("hlt".to_owned(), 1)]);
    }

    #[test]
    fn fault_log_roundtrip() {
        let (_m, c, d, id) = setup();
        c.report_fault(id, 1, "test fault");
        let reply = d.ioctl_raw(COVIRT_IOCTL, &client::fault_log()).unwrap();
        let rows = client::parse_fault_log(&reply).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, id);
        assert_eq!(rows[0].3, "test fault");
    }

    #[test]
    fn whitelist_grant_revoke_via_ioctl() {
        let (_m, c, d, id) = setup();
        let vctx = c.context(id).unwrap();
        assert!(!vctx.whitelist.would_allow(9, 0x55));
        d.ioctl_raw(COVIRT_IOCTL, &client::whitelist(id, 9, 0x55, true))
            .unwrap();
        assert!(vctx.whitelist.would_allow(9, 0x55));
        d.ioctl_raw(COVIRT_IOCTL, &client::whitelist(id, 9, 0x55, false))
            .unwrap();
        assert!(!vctx.whitelist.would_allow(9, 0x55));
    }

    #[test]
    fn terminate_posts_commands_to_live_cores() {
        let (_m, c, d, id) = setup();
        let vctx = c.context(id).unwrap();
        // Simulate a live core so the kill switch has a target.
        vctx.core_entered_guest(1);
        d.ioctl_raw(COVIRT_IOCTL, &client::terminate(id)).unwrap();
        let q = vctx.cmdq(1).unwrap();
        let drained = q.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].cmd, Command::Terminate);
    }

    #[test]
    fn unknown_subcommand_rejected() {
        let (_m, _c, d, _id) = setup();
        let mut w = WireWriter::new();
        w.put_u64(0xdead);
        assert!(d.ioctl_raw(COVIRT_IOCTL, &w.finish()).is_err());
        assert!(d.ioctl_raw(COVIRT_IOCTL, &[]).is_err());
    }

    #[test]
    fn unknown_enclave_rejected() {
        let (_m, _c, d, _id) = setup();
        assert!(matches!(
            d.ioctl_raw(COVIRT_IOCTL, &client::config_query(999)),
            Err(PiscesError::NoSuchEnclave(999))
        ));
    }
}
