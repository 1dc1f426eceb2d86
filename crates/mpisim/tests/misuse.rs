//! Failure injection: erroneous MPI usage must fail loudly and precisely,
//! not corrupt state or hang.

use siesta_mpisim::{Rank, RankFut, World};
use siesta_perfmodel::{platform_a, platform_c, Machine, MpiFlavor};

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// Run a 2-rank world with `body`; assert it panics (the scheduler resumes
/// a rank state machine's panic on the driving thread).
fn expect_world_panic<F>(body: F)
where
    F: Fn(Rank) -> RankFut<'static> + Send + Sync,
{
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        World::new(machine(), 2).run(body);
    }));
    assert!(result.is_err(), "expected a panic");
}

#[test]
fn double_wait_panics() {
    expect_world_panic(|mut rank| {
        Box::pin(async move {
            if rank.rank() == 0 {
                let comm = rank.comm_world();
                let r = rank.isend(&comm, 1, 0, 8);
                rank.wait(r).await;
                rank.wait(r).await; // the handle was released
            }
            rank
        })
    });
}

#[test]
fn wait_on_foreign_request_value_panics() {
    expect_world_panic(|mut rank| {
        Box::pin(async move {
            if rank.rank() == 0 {
                rank.wait(siesta_mpisim::Request(42)).await; // never allocated
            }
            rank
        })
    });
}

#[test]
fn out_of_range_peer_panics() {
    expect_world_panic(|mut rank| {
        Box::pin(async move {
            if rank.rank() == 0 {
                let comm = rank.comm_world();
                rank.send(&comm, 7, 0, 8).await; // world has 2 ranks
            }
            rank
        })
    });
}

#[test]
fn oversubscribed_single_node_platform_is_rejected_at_construction() {
    let result = std::panic::catch_unwind(|| {
        World::new(Machine::new(platform_c(), MpiFlavor::OpenMpi), 1000)
    });
    assert!(result.is_err());
}

#[test]
fn zero_rank_world_is_rejected() {
    let result = std::panic::catch_unwind(|| World::new(machine(), 0));
    assert!(result.is_err());
}

#[test]
fn gatherv_with_wrong_count_length_panics() {
    expect_world_panic(|mut rank| {
        Box::pin(async move {
            if rank.rank() == 0 {
                let comm = rank.comm_world();
                rank.gatherv(&comm, 0, &[1, 2, 3]).await; // 3 counts for 2 ranks
            }
            rank
        })
    });
}

#[test]
fn alltoallv_with_wrong_count_length_panics() {
    expect_world_panic(|mut rank| {
        Box::pin(async move {
            if rank.rank() == 0 {
                let comm = rank.comm_world();
                rank.alltoallv(&comm, &[1], &[1, 2]).await;
            }
            rank
        })
    });
}

#[test]
fn unmatched_recv_is_a_clean_deadlock_error() {
    // A plain hang in real MPI; here `try_run` reports it as a typed error.
    let err = World::new(machine(), 2)
        .try_run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                if rank.rank() == 1 {
                    rank.recv(&comm, 0, 0, 32).await; // rank 0 never sends
                }
                rank
            })
        })
        .unwrap_err();
    assert_eq!(err.nranks, 2);
    assert_eq!(err.ranks, vec![(1, err.ranks[0].1.clone())]);
}

/// Run a 2-rank world with `body` and return the message of the panic it
/// must raise.
fn world_panic_message<F>(body: F) -> String
where
    F: Fn(Rank) -> RankFut<'static> + Send + Sync,
{
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        World::new(machine(), 2).run(body);
    }));
    let payload = result.expect_err("expected a panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn mismatched_collectives_panic_naming_both_ranks() {
    // Rank 0 enters a barrier while rank 1 enters an allreduce at the same
    // point of the communicator's collective order.
    let msg = world_panic_message(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            if rank.rank() == 0 {
                rank.barrier(&comm).await;
            } else {
                rank.allreduce(&comm, 8).await;
            }
            rank
        })
    });
    assert!(msg.contains("mismatched collective"), "{msg}");
    assert!(msg.contains("rank 0 called MPI_Barrier"), "{msg}");
    assert!(msg.contains("rank 1 called MPI_Allreduce of 8 B"), "{msg}");
}

#[test]
fn mismatched_alltoallv_counts_panic_naming_both_ranks() {
    // Rank 0 sends 8 B to rank 1, whose recv_counts[0] expects 16 B. Every
    // other block matches.
    let msg = world_panic_message(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            if rank.rank() == 0 {
                rank.alltoallv(&comm, &[0, 8], &[0, 8]).await;
            } else {
                rank.alltoallv(&comm, &[8, 0], &[16, 0]).await;
            }
            rank
        })
    });
    assert!(msg.contains("mismatched MPI_Alltoallv counts"), "{msg}");
    assert!(msg.contains("rank 0 sent 8 B to rank 1, which expected 16 B"), "{msg}");
}

#[test]
fn missing_collective_member_is_a_diagnosed_deadlock() {
    // Rank 2 skips the allreduce: ranks 0 and 1 wait at its quorum forever.
    let err = World::new(machine(), 3)
        .try_run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                if rank.rank() != 2 {
                    rank.allreduce(&comm, 64).await;
                }
                rank
            })
        })
        .unwrap_err();
    let why = "waiting for the other members of a collective".to_string();
    assert_eq!(err.ranks, vec![(0, why.clone()), (1, why)]);
}

#[test]
fn deadlock_report_names_the_peer_of_a_pending_request() {
    // Rank 0 never sends or receives: rank 1 waits on an irecv from it and
    // rank 2 on a rendezvous isend to it. Both requests are posted on a
    // reversed copy of the world, where rank 0 is local rank 2, so the
    // report must name the peer's global rank.
    let err = World::new(machine(), 3)
        .try_run(|mut rank| {
            Box::pin(async move {
                let world = rank.comm_world();
                let me = rank.rank();
                let rev = rank.comm_split(&world, 0, -(me as i64)).await.expect("color 0");
                let req = match me {
                    1 => Some(rank.irecv(&rev, 2, 0, 32)),
                    2 => Some(rank.isend(&rev, 2, 0, 1 << 20)),
                    _ => None,
                };
                if let Some(req) = req {
                    rank.wait(req).await;
                }
                rank
            })
        })
        .unwrap_err();
    assert_eq!(
        err.ranks,
        vec![
            (1, "waiting for a message from global rank 0".to_string()),
            (2, "waiting for rendezvous ack from global rank 0".to_string()),
        ]
    );
}

#[test]
fn split_color_out_of_subgroup_returns_none_not_panic() {
    // MPI_UNDEFINED-style negative colors are a supported non-error.
    let stats = World::new(machine(), 4).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let color = if rank.rank() == 0 { -1 } else { 0 };
            let sub = rank.comm_split(&comm, color, 0).await;
            assert_eq!(sub.is_none(), rank.rank() == 0);
            if let Some(sub) = sub {
                rank.allreduce(&sub, 8).await;
                rank.comm_free(sub);
            }
            rank
        })
    });
    assert!(stats.elapsed_ns() > 0.0);
}

#[test]
fn messages_between_disjoint_tags_do_not_cross() {
    // Send on tag 1; a recv on tag 2 posted first must keep waiting until
    // the matching send arrives later — never steal the tag-1 message.
    let stats = World::new(machine(), 2).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            if rank.rank() == 0 {
                rank.send(&comm, 1, 1, 100).await;
                rank.send(&comm, 1, 2, 200).await;
            } else {
                let st2 = rank.recv(&comm, 0, 2, 4096).await;
                let st1 = rank.recv(&comm, 0, 1, 4096).await;
                assert_eq!(st2.bytes, 200);
                assert_eq!(st1.bytes, 100);
            }
            rank
        })
    });
    assert!(stats.elapsed_ns() > 0.0);
}
