//! Trace exporters: JSON Lines and chrome://tracing, hand-rolled so the
//! crate stays dependency-free. Timestamps convert from sim-TSC cycles to
//! microseconds with the caller-supplied clock frequency.

use crate::profile::{Phase, ProfileSnapshot};
use crate::{cycles_to_ns, unpack_str, EventKind, TraceEvent};

/// Append `s` to `out` escaped for a JSON string literal.
pub fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_name_fields(e: &TraceEvent, out: &mut String) {
    if e.kind.carries_name() {
        out.push_str(",\"name\":\"");
        escape(&unpack_str(e.a, e.b), out);
        out.push('"');
    } else {
        out.push_str(&format!(",\"a\":{},\"b\":{}", e.a, e.b));
    }
}

/// One JSON object per event, chronological, TSC converted to ns.
pub fn to_jsonl(events: &[TraceEvent], hz: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        let ns = cycles_to_ns(e.tsc, hz);
        out.push_str(&format!(
            "{{\"ts_ns\":{},\"tsc\":{},\"lane\":{},\"idx\":{},\"kind\":\"{}\"",
            ns,
            e.tsc,
            e.lane,
            e.idx,
            e.kind.name()
        ));
        if let Some(enc) = e.enclave {
            out.push_str(&format!(",\"enclave\":{enc}"));
        }
        push_name_fields(e, &mut out);
        out.push_str("}\n");
    }
    out
}

fn ts_us(tsc: u64, t0: u64, hz: u64) -> f64 {
    cycles_to_ns(tsc.saturating_sub(t0), hz) as f64 / 1000.0
}

/// Span-begin kinds paired into chrome "X" complete events by
/// [`to_chrome_trace`]; everything else becomes an instant event.
fn span_end_for(kind: EventKind) -> Option<EventKind> {
    match kind {
        EventKind::ExitEnter => Some(EventKind::ExitLeave),
        EventKind::ShootdownBegin => Some(EventKind::ShootdownEnd),
        _ => None,
    }
}

/// chrome://tracing (and <https://ui.perfetto.dev>) loadable JSON. Exit and
/// shootdown begin/end pairs render as duration ("X") slices per lane;
/// all other events render as instants ("i"). `pid` 0, `tid` = lane.
pub fn to_chrome_trace(events: &[TraceEvent], hz: u64) -> String {
    let t0 = events.iter().map(|e| e.tsc).min().unwrap_or(0);
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Per-lane stack of pending span-begin events (index into `events`).
    let mut open: Vec<(u32, EventKind, usize)> = Vec::new();
    let emit = |out: &mut String, first: &mut bool, body: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&body);
    };
    for (i, e) in events.iter().enumerate() {
        if span_end_for(e.kind).is_some() {
            open.push((e.lane, e.kind, i));
            continue;
        }
        let is_end = matches!(e.kind, EventKind::ExitLeave | EventKind::ShootdownEnd);
        if is_end {
            let want = match e.kind {
                EventKind::ExitLeave => EventKind::ExitEnter,
                _ => EventKind::ShootdownBegin,
            };
            if let Some(pos) = open
                .iter()
                .rposition(|(lane, kind, _)| *lane == e.lane && *kind == want)
            {
                let (_, _, bi) = open.remove(pos);
                let begin = &events[bi];
                let mut name = String::new();
                if begin.kind.carries_name() {
                    escape(&unpack_str(begin.a, begin.b), &mut name);
                } else {
                    name.push_str(begin.kind.name());
                }
                let ts = ts_us(begin.tsc, t0, hz);
                let dur = (ts_us(e.tsc, t0, hz) - ts).max(0.001);
                emit(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"ns\":{}}}}}",
                        name,
                        begin.kind.name(),
                        e.lane,
                        ts,
                        dur,
                        e.a
                    ),
                );
                continue;
            }
            // Unmatched end: fall through and render as an instant.
        }
        let mut name = String::new();
        if e.kind.carries_name() {
            escape(&unpack_str(e.a, e.b), &mut name);
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{:.3}}}",
                    name,
                    e.kind.name(),
                    e.lane,
                    ts_us(e.tsc, t0, hz)
                ),
            );
        } else {
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"args\":{{\"a\":{},\"b\":{}}}}}",
                    e.kind.name(),
                    e.kind.name(),
                    e.lane,
                    ts_us(e.tsc, t0, hz),
                    e.a,
                    e.b
                ),
            );
        }
    }
    // Unmatched begins (still-open spans at dump time) become instants
    // flagged `unpaired`, keeping their payload so in-flight exits and
    // shootdowns stay visible in the trace instead of vanishing.
    for (lane, kind, bi) in open {
        let begin = &events[bi];
        let mut name = String::new();
        let args = if kind.carries_name() {
            escape(&unpack_str(begin.a, begin.b), &mut name);
            "{\"unpaired\":true}".to_string()
        } else {
            name.push_str(kind.name());
            format!("{{\"unpaired\":true,\"a\":{},\"b\":{}}}", begin.a, begin.b)
        };
        emit(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"args\":{}}}",
                name,
                kind.name(),
                lane,
                ts_us(begin.tsc, t0, hz),
                args
            ),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

fn enclave_frame(enclave: Option<u64>) -> String {
    match enclave {
        Some(e) => format!("enclave{e}"),
        None => "native".to_string(),
    }
}

/// Folded-stack flamegraph lines from a profile snapshot:
/// `phase;enclave;detail cycles`, one line per non-zero cell, suitable
/// for `flamegraph.pl` / speedscope "folded" import. Per-core cycles get
/// a `coreN` leaf; controller-side overlay attribution (shootdown waits)
/// gets a `controller` leaf so off-core costs stay distinguishable from
/// on-core phase time.
pub fn to_folded(snap: &ProfileSnapshot) -> String {
    let mut out = String::new();
    for lane in &snap.lanes {
        for ep in &lane.enclaves {
            for phase in Phase::ALL {
                let cycles = ep.cycles[phase as usize];
                if cycles == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{};{};core{} {}\n",
                    phase.name(),
                    enclave_frame(ep.enclave),
                    lane.lane,
                    cycles
                ));
            }
        }
    }
    for ep in &snap.overlay {
        for phase in Phase::ALL {
            let cycles = ep.cycles[phase as usize];
            if cycles == 0 {
                continue;
            }
            out.push_str(&format!(
                "{};{};controller {}\n",
                phase.name(),
                enclave_frame(ep.enclave),
                cycles
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_str;

    fn ev(tsc: u64, lane: u32, idx: u64, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            tsc,
            lane,
            idx,
            kind,
            enclave: None,
            a,
            b,
        }
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let (a, b) = pack_str("cpuid");
        let events = vec![
            ev(1000, 0, 0, EventKind::ExitEnter, a, b),
            ev(2000, 0, 1, EventKind::Grant, 0x1000, 0x2000),
        ];
        let text = to_jsonl(&events, 1_000_000_000);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"exit_enter\""));
        assert!(lines[0].contains("\"name\":\"cpuid\""));
        assert!(lines[1].contains("\"a\":4096"));
        // 1 GHz: 1 cycle = 1 ns.
        assert!(lines[0].contains("\"ts_ns\":1000"));
    }

    /// The exitless-delivery events must come out of both exporters with
    /// their stable labels (tooling greps for these names).
    #[test]
    fn doorbell_events_are_labelled_in_both_exporters() {
        let events = vec![
            ev(1000, 2, 0, EventKind::CmdDoorbell, 7, 1),
            ev(2000, 1, 0, EventKind::CmdHarvest, 1, 0),
        ];
        let jsonl = to_jsonl(&events, 1_000_000_000);
        assert!(jsonl.contains("\"kind\":\"cmd_doorbell\""));
        assert!(jsonl.contains("\"kind\":\"cmd_harvest\""));
        let chrome = to_chrome_trace(&events, 1_000_000_000);
        assert!(chrome.contains("\"name\":\"cmd_doorbell\""));
        assert!(chrome.contains("\"name\":\"cmd_harvest\""));
    }

    #[test]
    fn chrome_trace_pairs_spans() {
        let (a, b) = pack_str("msr_read");
        let events = vec![
            ev(1000, 0, 0, EventKind::ExitEnter, a, b),
            ev(1500, 1, 0, EventKind::CmdPost, 7, 1),
            ev(3000, 0, 1, EventKind::ExitLeave, 2000, 0),
        ];
        let text = to_chrome_trace(&events, 1_000_000_000);
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with('}'));
        // The exit pair becomes one X slice named after the reason.
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"msr_read\""));
        assert!(text.contains("\"dur\":2.000"));
        // The post stays an instant on lane 1.
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"tid\":1"));
    }

    #[test]
    fn chrome_trace_handles_unmatched_spans() {
        let events = vec![
            ev(100, 2, 0, EventKind::ShootdownBegin, 3, 1),
            ev(500, 0, 0, EventKind::ExitLeave, 400, 0),
        ];
        let text = to_chrome_trace(&events, 1_000_000_000);
        // Both degrade to instants rather than corrupting the stream.
        assert_eq!(text.matches("\"ph\":\"i\"").count(), 2);
        assert!(!text.contains("\"ph\":\"X\""));
        // The in-flight begin keeps its payload and is flagged unpaired.
        assert!(text.contains("\"unpaired\":true"));
        assert!(text.contains("\"a\":3,\"b\":1"));
    }

    #[test]
    fn unpaired_named_begin_keeps_name() {
        let (a, b) = pack_str("hlt");
        let events = vec![ev(100, 0, 0, EventKind::ExitEnter, a, b)];
        let text = to_chrome_trace(&events, 1_000_000_000);
        assert!(text.contains("\"name\":\"hlt\""));
        assert!(text.contains("\"unpaired\":true"));
    }

    #[test]
    fn jsonl_carries_enclave_tag() {
        let mut e = ev(1000, 0, 0, EventKind::Grant, 0x1000, 0x2000);
        e.enclave = Some(3);
        let text = to_jsonl(&[e], 1_000_000_000);
        assert!(text.contains("\"enclave\":3"));
        // Untagged events omit the field entirely.
        let text = to_jsonl(
            &[ev(1000, 0, 0, EventKind::Grant, 0x1000, 0x2000)],
            1_000_000_000,
        );
        assert!(!text.contains("enclave"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        assert_eq!(
            to_chrome_trace(&[], 1_000_000_000),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}"
        );
        assert_eq!(to_jsonl(&[], 1_000_000_000), "");
    }

    #[test]
    fn escape_handles_specials() {
        let mut s = String::new();
        escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn folded_stacks_cover_lanes_and_overlay() {
        use crate::profile::{EnclavePhases, LaneProfile, Phase, ProfileSnapshot, NUM_PHASES};
        let mut on_core = EnclavePhases {
            enclave: Some(3),
            cycles: [0; NUM_PHASES],
        };
        on_core.cycles[Phase::GuestExec as usize] = 9000;
        on_core.cycles[Phase::RootExit as usize] = 1000;
        let mut native = EnclavePhases {
            enclave: None,
            cycles: [0; NUM_PHASES],
        };
        native.cycles[Phase::Idle as usize] = 500;
        let mut overlay = EnclavePhases {
            enclave: Some(3),
            cycles: [0; NUM_PHASES],
        };
        overlay.cycles[Phase::ShootdownWait as usize] = 250;
        let snap = ProfileSnapshot {
            lanes: vec![LaneProfile {
                lane: 0,
                wall: 10_500,
                accounted: 10_500,
                enclaves: vec![on_core, native],
            }],
            overlay: vec![overlay],
        };
        let folded = to_folded(&snap);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.contains(&"guest_exec;enclave3;core0 9000"));
        assert!(lines.contains(&"root_exit;enclave3;core0 1000"));
        assert!(lines.contains(&"idle;native;core0 500"));
        assert!(lines.contains(&"shootdown_wait;enclave3;controller 250"));
    }

    #[test]
    fn folded_stacks_empty_snapshot_is_empty() {
        let snap = ProfileSnapshot {
            lanes: Vec::new(),
            overlay: Vec::new(),
        };
        assert_eq!(to_folded(&snap), "");
    }
}
