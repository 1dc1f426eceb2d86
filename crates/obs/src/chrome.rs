//! Chrome trace-event JSON exporter.
//!
//! Emits the `{"traceEvents": [...]}` object format with complete
//! (`"ph":"X"`) events, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>. Timestamps and durations are microseconds,
//! as the format requires. JSON is written by hand — the only strings we
//! embed are span names and `key=value` args, escaped below.
//!
//! Span args are interned ([`crate::intern`]): each event carries its
//! `u64` content-hash id (`argsId`) alongside the resolved string, and
//! the document ends with a `siestaArgTable` section mapping every id
//! used in the trace to its string, sorted by id. Because ids are
//! content hashes, the table — like the span order produced by
//! [`crate::span::drain`] — is deterministic.

use std::fmt::Write as _;

use crate::intern::ArgsId;
use crate::span::FinishedSpan;

/// Escape a string for inclusion in a JSON string literal.
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render spans as a Chrome trace-event JSON document.
pub fn chrome_trace_json(spans: &[FinishedSpan]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        escape_json_into(&mut out, s.name);
        out.push_str("\",\"ph\":\"X\",\"pid\":1,\"tid\":");
        let _ = write!(
            &mut out,
            "{},\"ts\":{}.{:03},\"dur\":{}.{:03}",
            s.tid,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000
        );
        if !s.args.is_none() {
            let _ = write!(&mut out, ",\"args\":{{\"argsId\":\"{}\",\"args\":\"", s.args.0);
            escape_json_into(&mut out, s.args_str());
            out.push_str("\"}");
        }
        out.push('}');
    }
    out.push_str("\n],\"siestaArgTable\":{");
    // Only ids this trace references, in id order (ids are content
    // hashes, so the section is byte-stable for a given span set).
    let mut ids: Vec<ArgsId> = spans.iter().map(|s| s.args).filter(|a| !a.is_none()).collect();
    ids.sort_unstable();
    ids.dedup();
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(&mut out, "\n\"{}\":\"", id.0);
        escape_json_into(&mut out, crate::intern::resolve(*id));
        out.push('"');
    }
    if ids.is_empty() {
        out.push_str("}}\n");
    } else {
        out.push_str("\n}}\n");
    }
    out
}

/// Canonical (timing-free) trace: spans reduced to `(name, args)` pairs
/// sorted lexicographically, with ordinal timestamps, zero durations, and
/// `tid` 0. Two runs that execute the same logical work produce
/// byte-identical canonical traces regardless of thread width or wall
/// clock — the form the cross-width differential test compares.
pub fn chrome_trace_json_canonical(spans: &[FinishedSpan]) -> String {
    let mut work: Vec<(&'static str, &'static str, ArgsId)> =
        spans.iter().map(|s| (s.name, s.args_str(), s.args)).collect();
    work.sort_unstable();
    let canonical: Vec<FinishedSpan> = work
        .into_iter()
        .enumerate()
        .map(|(i, (name, _args_str, args))| FinishedSpan {
            name,
            args,
            tid: 0,
            depth: 0,
            start_ns: (i as u64) * 1_000,
            dur_ns: 0,
        })
        .collect();
    chrome_trace_json(&canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::intern;

    fn span(name: &'static str, args: &str, start_ns: u64, dur_ns: u64) -> FinishedSpan {
        FinishedSpan { name, args: intern(args), tid: 1, depth: 0, start_ns, dur_ns }
    }

    #[test]
    fn emits_complete_events_in_microseconds() {
        let spans = vec![
            span("trace", "", 1_500, 2_000_000),
            span("sequitur", "rank=3", 2_000_000, 10_500),
        ];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"trace\""));
        assert!(json.contains("\"ph\":\"X\""));
        // 1500 ns -> 1.500 us, 2_000_000 ns -> 2000.000 us.
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2000.000"));
        assert!(json.contains("\"args\":\"rank=3\""));
        // Balanced braces => structurally sound.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn arg_table_lists_referenced_ids() {
        let spans = vec![span("a", "rank=1", 0, 1), span("b", "rank=2", 1, 1)];
        let json = chrome_trace_json(&spans);
        let id1 = intern("rank=1").0;
        let id2 = intern("rank=2").0;
        assert!(json.contains("\"siestaArgTable\":{"));
        assert!(json.contains(&format!("\"{id1}\":\"rank=1\"")));
        assert!(json.contains(&format!("\"{id2}\":\"rank=2\"")));
        assert!(json.contains(&format!("\"argsId\":\"{id1}\"")));
    }

    #[test]
    fn escapes_json_specials() {
        let spans = vec![span("weird", "msg=\"a\\b\n\"", 0, 1)];
        let json = chrome_trace_json(&spans);
        assert!(json.contains(r#"msg=\"a\\b\n\""#));
    }

    #[test]
    fn empty_span_list_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[\n],\"siestaArgTable\":{}}\n");
    }

    #[test]
    fn canonical_is_order_and_timing_independent() {
        let a = vec![span("x", "k=1", 100, 50), span("y", "", 7, 3)];
        let b = vec![span("y", "", 900, 1), span("x", "k=1", 2, 2)];
        let ja = chrome_trace_json_canonical(&a);
        let jb = chrome_trace_json_canonical(&b);
        assert_eq!(ja, jb);
        assert!(ja.contains("\"dur\":0.000"));
        assert!(ja.contains("\"tid\":0"));
    }
}
