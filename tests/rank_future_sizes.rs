//! Pins the size of what a simulated rank holds while it runs.
//!
//! A rank is one boxed future: its `Rank`, its body's locals, and the
//! future of the one MPI call it is awaiting. The largest call future a
//! body awaits therefore sets its rank's size, and each byte of the halo
//! rank's future costs 8 KiB at 8,192 ranks. Sizes are `size_of_val`,
//! which is the same in debug and release builds.
//!
//! Before blocking calls awaited one small leaf future each, the sizes
//! were: halo `RankFut` 800 B; `send` 264, `recv` 208, `sendrecv` 328,
//! `wait` 256, `waitall` 312, `test` 64, `barrier` 248, `allreduce` 264,
//! `allgather` 264, `alltoall` 272, `reduce_scatter_block` 264, `bcast`
//! 464, `reduce` 456, `gather` 424, `scatter` 424, `gatherv` 400,
//! `scatterv` 448, `scan` 376, `alltoallv` 512, `comm_split` 200,
//! `comm_dup` 248.

use std::mem::size_of_val;
use std::sync::Mutex;

use siesta_mpisim::{Request, World};
use siesta_perfmodel::{platform_b, Machine, MpiFlavor};
use siesta_workloads::halo::halo2d_body;

fn machine() -> Machine {
    Machine::new(platform_b(), MpiFlavor::OpenMpi)
}

#[test]
fn halo_rank_future_stays_within_584_bytes() {
    let size = Mutex::new(0);
    let halo = halo2d_body(3, 4096);
    World::new(machine(), 1).run(|rank| {
        let fut = halo(rank);
        *size.lock().unwrap() = size_of_val(&*fut);
        fut
    });
    let size = size.into_inner().unwrap();
    assert!(size <= 584, "a halo rank's future is {size} B");
}

#[test]
fn call_futures_stay_within_their_pinned_sizes() {
    // Each call's future is made and dropped unpolled: a call does nothing
    // before its first poll.
    let sizes: Mutex<Vec<(&str, usize, usize)>> = Mutex::new(Vec::new());
    World::new(machine(), 1).run(|mut rank| {
        let sizes = &sizes;
        Box::pin(async move {
            let comm = rank.comm_world();
            let counts = [8];
            let req = Request(0);
            let mut sizes = sizes.lock().unwrap();
            let mut pin = |name, bound, size| sizes.push((name, bound, size));
            pin("send", 56, size_of_val(&rank.send(&comm, 0, 0, 8)));
            pin("recv", 80, size_of_val(&rank.recv(&comm, 0, 0, 8)));
            pin("sendrecv", 112, size_of_val(&rank.sendrecv(&comm, 0, 0, 8, 0, 0, 8)));
            pin("wait", 64, size_of_val(&rank.wait(req)));
            pin("waitall", 120, size_of_val(&rank.waitall(&[req])));
            pin("test", 24, size_of_val(&rank.test(req)));
            pin("barrier", 64, size_of_val(&rank.barrier(&comm)));
            pin("allreduce", 72, size_of_val(&rank.allreduce(&comm, 8)));
            pin("allgather", 72, size_of_val(&rank.allgather(&comm, 8)));
            pin("alltoall", 72, size_of_val(&rank.alltoall(&comm, 8)));
            pin("reduce_scatter_block", 72, size_of_val(&rank.reduce_scatter_block(&comm, 8)));
            pin("bcast", 56, size_of_val(&rank.bcast(&comm, 0, 8)));
            pin("reduce", 56, size_of_val(&rank.reduce(&comm, 0, 8)));
            pin("gather", 56, size_of_val(&rank.gather(&comm, 0, 8)));
            pin("scatter", 56, size_of_val(&rank.scatter(&comm, 0, 8)));
            pin("gatherv", 64, size_of_val(&rank.gatherv(&comm, 0, &counts)));
            pin("scatterv", 64, size_of_val(&rank.scatterv(&comm, 0, &counts)));
            pin("scan", 128, size_of_val(&rank.scan(&comm, 8)));
            pin("alltoallv", 144, size_of_val(&rank.alltoallv(&comm, &counts, &counts)));
            pin("comm_split", 80, size_of_val(&rank.comm_split(&comm, 0, 0)));
            pin("comm_dup", 64, size_of_val(&rank.comm_dup(&comm)));
            drop(sizes);
            assert_eq!(rank.wtime(), 0.0, "an unpolled call moved the clock");
            rank
        })
    });
    let over: Vec<String> = sizes
        .into_inner()
        .unwrap()
        .into_iter()
        .filter(|&(_, bound, size)| size > bound)
        .map(|(name, bound, size)| format!("{name} {size} B (pinned at {bound} B)"))
        .collect();
    assert!(over.is_empty(), "call futures grew: {}", over.join(", "));
}
