//! Human-readable trace rendering, in the spirit of mpiP's per-callsite
//! reports: one line per unique event plus per-rank sequence summaries.
//! Used by `siesta trace` for debugging workloads and the tracer itself.

use std::fmt::Write;

use crate::event::{CommEvent, EventRecord};
use crate::merge::GlobalTrace;

fn describe(e: &CommEvent) -> String {
    match e {
        CommEvent::Send { rel, tag, bytes, comm } => {
            format!("Send       rel=+{rel} tag={tag} bytes={bytes} comm={comm}")
        }
        CommEvent::Recv { rel, tag, bytes, comm } => {
            format!("Recv       rel=+{rel} tag={tag} bytes={bytes} comm={comm}")
        }
        CommEvent::Isend { rel, tag, bytes, comm, req } => {
            format!("Isend      rel=+{rel} tag={tag} bytes={bytes} comm={comm} req={req}")
        }
        CommEvent::Irecv { rel, tag, bytes, comm, req } => {
            format!("Irecv      rel=+{rel} tag={tag} bytes={bytes} comm={comm} req={req}")
        }
        CommEvent::Wait { req } => format!("Wait       req={req}"),
        CommEvent::Waitall { reqs } => format!("Waitall    reqs={reqs:?}"),
        CommEvent::Sendrecv { dest_rel, send_bytes, src_rel, recv_bytes, comm, .. } => {
            format!(
                "Sendrecv   to=+{dest_rel}({send_bytes}B) from=+{src_rel}({recv_bytes}B) comm={comm}"
            )
        }
        CommEvent::Barrier { comm } => format!("Barrier    comm={comm}"),
        CommEvent::Bcast { comm, root, bytes } => {
            format!("Bcast      root={root} bytes={bytes} comm={comm}")
        }
        CommEvent::Reduce { comm, root, bytes } => {
            format!("Reduce     root={root} bytes={bytes} comm={comm}")
        }
        CommEvent::Allreduce { comm, bytes } => format!("Allreduce  bytes={bytes} comm={comm}"),
        CommEvent::Allgather { comm, bytes } => format!("Allgather  bytes={bytes} comm={comm}"),
        CommEvent::Alltoall { comm, bytes_per_peer } => {
            format!("Alltoall   bytes/peer={bytes_per_peer} comm={comm}")
        }
        CommEvent::Alltoallv { comm, send_counts, .. } => {
            let total: u64 = send_counts.iter().sum();
            format!(
                "Alltoallv  peers={} total_send={total}B comm={comm}",
                send_counts.len()
            )
        }
        CommEvent::Gather { comm, root, bytes } => {
            format!("Gather     root={root} bytes={bytes} comm={comm}")
        }
        CommEvent::Scatter { comm, root, bytes } => {
            format!("Scatter    root={root} bytes={bytes} comm={comm}")
        }
        CommEvent::Gatherv { comm, root, counts } => {
            let total: u64 = counts.iter().sum();
            format!("Gatherv    root={root} total={total}B comm={comm}")
        }
        CommEvent::Scatterv { comm, root, counts } => {
            let total: u64 = counts.iter().sum();
            format!("Scatterv   root={root} total={total}B comm={comm}")
        }
        CommEvent::Scan { comm, bytes } => format!("Scan       bytes={bytes} comm={comm}"),
        CommEvent::ReduceScatterBlock { comm, bytes_per_rank } => {
            format!("RedScatBlk bytes/rank={bytes_per_rank} comm={comm}")
        }
        CommEvent::CommSplit { parent, color, key, result } => {
            format!("CommSplit  parent={parent} color={color} key={key} result={result:?}")
        }
        CommEvent::CommDup { parent, result } => {
            format!("CommDup    parent={parent} result={result}")
        }
        CommEvent::CommFree { comm } => format!("CommFree   comm={comm}"),
    }
}

/// Render a merged trace as text: the global terminal table with occurrence
/// counts, followed by per-rank sequence summaries.
pub fn render(trace: &GlobalTrace) -> String {
    let mut occurrences = vec![0u64; trace.table.len()];
    for seq in &trace.seqs {
        for &id in seq {
            occurrences[id as usize] += 1;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "global terminal table ({} entries, {} ranks, {} total events, {} merge rounds)",
        trace.table.len(),
        trace.nranks,
        trace.seqs.iter().map(|s| s.len()).sum::<usize>(),
        trace.merge_rounds
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for (id, rec) in trace.table.iter().enumerate() {
        let line = match rec {
            EventRecord::Comm(e) => describe(e),
            EventRecord::Compute(s) => {
                let m = s.mean();
                format!(
                    "Compute    INS={:.3e} CYC={:.3e} LST={:.3e} DCM={:.3e} (n={})",
                    m.ins, m.cyc, m.lst, m.l1_dcm, s.count
                )
            }
        };
        let _ = writeln!(out, "t{id:<4} x{:<8} {line}", occurrences[id]);
    }
    let _ = writeln!(out, "{}", "-".repeat(78));
    for (rank, seq) in trace.seqs.iter().enumerate() {
        let head: Vec<String> = seq.iter().take(12).map(|id| format!("t{id}")).collect();
        let _ = writeln!(
            out,
            "rank {rank:<4} {} events: {}{}",
            seq.len(),
            head.join(" "),
            if seq.len() > 12 { " ..." } else { "" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ComputeStats;
    use crate::recorder::StreamedTrace;
    use siesta_perfmodel::CounterVec;

    #[test]
    fn renders_table_and_sequences() {
        let allreduce = EventRecord::Comm(CommEvent::Allreduce { comm: 0, bytes: 64 });
        let compute = EventRecord::Compute(ComputeStats::new(CounterVec::new(
            1e6, 2e6, 3e5, 1e4, 1e4, 100.0,
        )));
        let trace = StreamedTrace::from_tables(
            vec![
                (vec![allreduce.clone(), compute], vec![1, 0, 1, 0]),
                (vec![allreduce], vec![0, 0]),
            ],
            100,
        );
        let global = crate::merge::merge_tables(trace);
        let text = render(&global);
        assert!(text.contains("Allreduce  bytes=64"));
        assert!(text.contains("Compute"));
        assert!(text.contains("rank 0"));
        assert!(text.contains("rank 1"));
        // Occurrence counts: allreduce appears 4 times total.
        assert!(text.contains("x4"), "{text}");
    }

    #[test]
    fn describe_covers_every_variant() {
        // Smoke-test the printer on one of each.
        let events = vec![
            CommEvent::Send { rel: 1, tag: 0, bytes: 8, comm: 0 },
            CommEvent::Wait { req: 0 },
            CommEvent::Alltoallv { comm: 0, send_counts: vec![1, 2], recv_counts: vec![2, 1] },
            CommEvent::Gatherv { comm: 0, root: 0, counts: vec![3, 4] },
            CommEvent::Scan { comm: 0, bytes: 8 },
            CommEvent::ReduceScatterBlock { comm: 0, bytes_per_rank: 8 },
            CommEvent::CommSplit { parent: 0, color: 1, key: 2, result: Some(1) },
        ];
        for e in events {
            assert!(!describe(&e).is_empty());
        }
    }
}
