//! The three workloads, their seeded perturbations and their tiny
//! self-test sizes.
//!
//! Each named workload loads a different layer (see `README.md`):
//! `stirturb-256` the `mpisim` engine, `sweep3d-512` trace ingest with a
//! few long sequences, `halo-8192` per-rank fixed costs with many short
//! ones. All run on platform B with OpenMPI.

use siesta_mpisim::{Rank, RankFut};
use siesta_perfmodel::{platform_b, Machine, MpiFlavor};
use siesta_workloads::grid::{Grid2d, Grid3d};
use siesta_workloads::halo::halo2d_body;
use siesta_workloads::{ProblemSize, Program};

/// The workload names the benchmark accepts, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["stirturb-256", "sweep3d-512", "halo-8192"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StirTurb,
    Sweep3d,
    Halo,
}

/// One fully resolved workload configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub nranks: usize,
    /// Problem size of the FLASH and SWEEP3D skeletons.
    pub size: ProblemSize,
    /// Steps and face size of the halo microkernel.
    pub halo_steps: usize,
    pub face_bytes: usize,
    pub workload_seed: u64,
    pub tiny: bool,
}

impl Workload {
    /// Resolve `name` to its configuration. Workload seed 0 is the named
    /// configuration; any other seed moves the rank count within 1/16 of
    /// the named count (keeping the process grid's aspect ratio at most 2)
    /// and, for the halo kernel, the face size within the eager protocol.
    /// `tiny` shrinks the workload for the self-test.
    pub fn resolve(name: &str, workload_seed: u64, tiny: bool) -> Result<Workload, String> {
        let (&name, kind) = NAMES
            .iter()
            .zip([Kind::StirTurb, Kind::Sweep3d, Kind::Halo])
            .find(|(n, _)| **n == name)
            .ok_or_else(|| format!("unknown workload {name} (available: {})", NAMES.join(", ")))?;
        let mut w = Workload {
            name,
            kind,
            nranks: match kind {
                Kind::StirTurb => 256,
                Kind::Sweep3d => 512,
                Kind::Halo => 8192,
            },
            size: ProblemSize::Small,
            halo_steps: 3,
            face_bytes: 4096,
            workload_seed,
            tiny,
        };
        if tiny {
            w.nranks = if kind == Kind::Halo { 1024 } else { 64 };
            w.size = ProblemSize::Tiny;
        }
        if workload_seed != 0 {
            let mut rng = SplitMix64(workload_seed);
            let spread = w.nranks / 16;
            let counts: Vec<usize> = (w.nranks - spread..=w.nranks + spread)
                .filter(|&n| kind.keeps_shape(n))
                .collect();
            w.nranks = counts[(rng.next() % counts.len() as u64) as usize];
            if kind == Kind::Halo {
                // 2 KiB to 4 KiB: larger faces would switch to rendezvous.
                w.face_bytes = 2048 + 256 * (rng.next() % 9) as usize;
            }
        }
        Ok(w)
    }

    /// The SPMD body, as `World::run` and `Siesta::synthesize_run` take it.
    pub fn body(&self) -> Box<dyn Fn(Rank) -> RankFut<'static> + Send + Sync> {
        match self.kind {
            Kind::StirTurb => Program::StirTurb.body(self.size),
            Kind::Sweep3d => Program::Sweep3d.body(self.size),
            Kind::Halo => halo2d_body(self.halo_steps, self.face_bytes),
        }
    }

    /// `"small"` / `"tiny"`, for the record.
    pub fn size_name(&self) -> &'static str {
        match self.size {
            ProblemSize::Tiny => "tiny",
            ProblemSize::Small => "small",
            ProblemSize::Reference => "reference",
        }
    }
}

impl Kind {
    /// Whether the program runs on `n` ranks with a process grid whose
    /// longest side is at most twice its shortest, like the named counts.
    fn keeps_shape(self, n: usize) -> bool {
        match self {
            Kind::StirTurb => {
                let g = Grid3d::near_cubic(n);
                let (lo, hi) = (g.nx.min(g.ny).min(g.nz), g.nx.max(g.ny).max(g.nz));
                Program::StirTurb.valid_nprocs(n) && hi <= 2 * lo
            }
            Kind::Sweep3d | Kind::Halo => {
                let g = Grid2d::near_square(n);
                n >= 2 && g.cols <= 2 * g.rows
            }
        }
    }
}

/// Platform B with OpenMPI: the machine every workload traces and replays on.
pub fn machine() -> Machine {
    Machine::new(platform_b(), MpiFlavor::OpenMpi)
}

/// SplitMix64: a tiny deterministic generator for the workload seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_named_configuration() {
        let w = Workload::resolve("halo-8192", 0, false).unwrap();
        assert_eq!((w.nranks, w.face_bytes, w.halo_steps), (8192, 4096, 3));
        let w = Workload::resolve("sweep3d-512", 0, false).unwrap();
        assert_eq!((w.nranks, w.size), (512, ProblemSize::Small));
        let w = Workload::resolve("stirturb-256", 0, false).unwrap();
        assert_eq!((w.nranks, w.size), (256, ProblemSize::Small));
    }

    #[test]
    fn seeds_stay_within_a_sixteenth_and_repeat() {
        for name in NAMES {
            let named = Workload::resolve(name, 0, false).unwrap().nranks;
            let mut counts = std::collections::BTreeSet::new();
            for seed in 1..50 {
                let a = Workload::resolve(name, seed, false).unwrap();
                let b = Workload::resolve(name, seed, false).unwrap();
                assert_eq!((a.nranks, a.face_bytes), (b.nranks, b.face_bytes));
                assert!(a.nranks.abs_diff(named) <= named / 16, "{name} seed {seed}");
                assert!(a.kind.keeps_shape(a.nranks));
                assert!((2048..=4096).contains(&a.face_bytes));
                counts.insert(a.nranks);
            }
            assert!(counts.len() > 1, "{name}: seeds never move the rank count");
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(Workload::resolve("stirturb-1024", 0, false).is_err());
    }
}
