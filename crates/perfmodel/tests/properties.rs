//! Property tests for the hardware models, on the seeded `siesta-prop`
//! harness.

use siesta_perfmodel::{platform_a, platform_b, platform_c, KernelDesc, Machine, MpiFlavor};
use siesta_prop::{check, Gen};

fn arb_kernel(g: &mut Gen) -> KernelDesc {
    KernelDesc {
        int_alu: g.draw(0.0..1e6),
        fp_add: g.draw(0.0..1e6),
        fp_div: g.draw(0.0..1e4),
        loads: g.draw(0.0..1e6),
        stores: g.draw(0.0..1e5),
        branches: g.draw(0.0..1e5),
        mispredict_rate: g.draw(0.0..1.0),
        working_set: g.draw(0.0..1e7),
        stride: g.draw(8.0..128.0),
    }
}

/// Counters are always valid (finite, non-negative) and architectural
/// counts match the kernel exactly on every platform.
#[test]
fn counters_are_valid_everywhere() {
    check("counters_are_valid_everywhere", 256, |g| {
        let k = arb_kernel(g);
        for platform in [platform_a(), platform_b(), platform_c()] {
            let c = platform.cpu.counters(&k);
            assert!(c.is_valid());
            assert!((c.ins - k.instructions()).abs() < 1e-6);
            assert!((c.lst - (k.loads + k.stores)).abs() < 1e-6);
            assert!(c.msp <= c.br_cn + 1e-9);
            assert!(c.l1_dcm <= c.lst + 1e-9);
        }
    });
}

/// More work never costs fewer cycles (monotonicity in repetition).
#[test]
fn cycles_monotone_in_repetitions() {
    check("cycles_monotone_in_repetitions", 256, |g| {
        let (k, r) = (arb_kernel(g), g.draw(1.0..20.0));
        let cpu = platform_a().cpu;
        let once = cpu.counters(&k).cyc;
        let many = cpu.counters(&k.repeat(r)).cyc;
        assert!(many >= once * 0.999, "repeat {r}: {many} < {once}");
    });
}

/// A larger working set never reduces cache misses (other things equal).
#[test]
fn misses_monotone_in_working_set() {
    check("misses_monotone_in_working_set", 256, |g| {
        let (k, grow) = (arb_kernel(g), g.draw(1.0..50.0));
        let cpu = platform_a().cpu;
        let small = cpu.counters(&k).l1_dcm;
        let mut big_k = k;
        big_k.working_set *= grow;
        let big = cpu.counters(&big_k).l1_dcm;
        assert!(big >= small * 0.999, "ws×{grow}: {big} < {small}");
    });
}

/// Noisy readings stay within a few sigma of the exact values and are
/// reproducible per seed.
#[test]
fn noise_is_bounded_and_deterministic() {
    check("noise_is_bounded_and_deterministic", 256, |g| {
        let (k, seed) = (arb_kernel(g), g.u64());
        let cpu = platform_a().cpu;
        let exact = cpu.counters(&k);
        let a = cpu.counters_noisy(&k, seed);
        let b = cpu.counters_noisy(&k, seed);
        assert_eq!(a, b);
        assert!(a.is_valid());
        for (x, e) in a.as_array().iter().zip(exact.as_array().iter()) {
            if *e > 0.0 {
                // Sum-of-uniforms noise is hard-bounded by ±2·√3·σ.
                assert!((x - e).abs() / e <= 2.0 * 3.0f64.sqrt() * cpu.noise_sigma + 1e-12);
            } else {
                assert_eq!(*x, 0.0);
            }
        }
    });
}

/// The KNL platform is never faster than platform A for the same kernel.
#[test]
fn knl_is_never_faster() {
    check("knl_is_never_faster", 256, |g| {
        let k = arb_kernel(g);
        let ta = platform_a().cpu.kernel_time_ns(&k);
        let tb = platform_b().cpu.kernel_time_ns(&k);
        assert!(tb >= ta * 0.999, "B faster than A: {tb} < {ta}");
    });
}

/// Flavor tuning keeps network parameters physical (positive, finite).
#[test]
fn flavored_networks_are_physical() {
    check("flavored_networks_are_physical", 256, |g| {
        let bytes = g.draw(0usize..100_000_000);
        for platform in [platform_a(), platform_b()] {
            for flavor in MpiFlavor::ALL {
                let m = Machine::new(platform, flavor);
                for same_node in [false, true] {
                    let t = m.net.transfer_ns(bytes, same_node);
                    assert!(t.is_finite() && t > 0.0);
                    let d = m.net.blocking_delivery_ns(bytes, same_node);
                    assert!(d >= t);
                }
            }
        }
    });
}

/// Transfer time is monotone in message size for every flavor.
#[test]
fn transfer_monotone_in_size() {
    check("transfer_monotone_in_size", 256, |g| {
        let (a, b) = (g.draw(0usize..50_000_000), g.draw(0usize..50_000_000));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for flavor in MpiFlavor::ALL {
            let m = Machine::new(platform_a(), flavor);
            assert!(m.net.transfer_ns(lo, false) <= m.net.transfer_ns(hi, false));
            assert!(
                m.net.blocking_delivery_ns(lo, false)
                    <= m.net.blocking_delivery_ns(hi, false) + 1e-9
            );
        }
    });
}
