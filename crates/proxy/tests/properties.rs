//! Property tests for the computation-proxy search, on the seeded
//! `siesta-prop` harness.

use siesta_perfmodel::{platform_a, platform_b, CounterVec, Machine, MpiFlavor};
use siesta_prop::check;
use siesta_proxy::{nnls, solve_block_fit, CommShrink, ProxySearcher};

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// NNLS always returns a feasible point satisfying the KKT conditions.
#[test]
fn nnls_kkt_holds() {
    check("nnls_kkt_holds", 128, |g| {
        let entries: [f64; 24] = std::array::from_fn(|_| g.draw(0.05..5.0));
        let b: [f64; 6] = std::array::from_fn(|_| g.draw(-3.0..6.0));
        let a: Vec<Vec<f64>> = (0..6).map(|i| entries[i * 4..(i + 1) * 4].to_vec()).collect();
        let x = nnls(&a, &b);
        assert!(x.iter().all(|&v| v >= 0.0 && v.is_finite()));
        // Residual and gradient.
        let r: Vec<f64> =
            (0..6).map(|i| b[i] - (0..4).map(|j| a[i][j] * x[j]).sum::<f64>()).collect();
        let scale = entries.iter().fold(1.0f64, |m, v| m.max(*v))
            * b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for j in 0..4 {
            let g: f64 = (0..6).map(|i| a[i][j] * r[i]).sum();
            if x[j] > 1e-7 {
                assert!(g.abs() < 1e-5 * scale, "active grad {g} (x={})", x[j]);
            } else {
                assert!(g < 1e-5 * scale, "inactive ascent {g}");
            }
        }
    });
}

/// The block fit always produces a feasible solution: non-negative and
/// respecting the wrapper-loop cover constraint, pre- and post-rounding.
#[test]
fn block_fit_is_always_feasible() {
    check("block_fit_is_always_feasible", 128, |g| {
        let ins = g.draw(1e3..1e8);
        let cyc_per_ins = g.draw(0.2..8.0);
        let lst_frac = g.draw(0.05..0.6);
        let dcm_frac = g.draw(0.0..0.4);
        let br_frac = g.draw(0.005..0.2);
        let msp_rate = g.draw(0.0..0.5);
        let lst = ins * lst_frac;
        let br = ins * br_frac;
        let t = [ins, ins * cyc_per_ins, lst, lst * dcm_frac, br, br * msp_rate];
        let m = machine();
        let searcher = ProxySearcher::new(&m);
        let fit = solve_block_fit(searcher.b_matrix(), &t);
        assert!(fit.x.iter().all(|&v| v >= 0.0 && v.is_finite()));
        let inner: f64 = fit.x[..9].iter().sum();
        assert!(fit.x[10] >= inner - 1e-6 * inner.max(1.0));
        let proxy = searcher.search(&CounterVec::from_array(t));
        let inner_r: u64 = proxy.reps[..9].iter().sum();
        assert!(proxy.reps[10] >= inner_r);
    });
}

/// The searched proxy never predicts wildly more work than asked: its
/// instruction count stays within a small multiple of the target.
#[test]
fn search_does_not_explode() {
    check("search_does_not_explode", 128, |g| {
        let (ins, cyc_mult) = (g.draw(1e4..1e8), g.draw(0.3..4.0));
        let m = machine();
        let searcher = ProxySearcher::new(&m);
        let t =
            CounterVec::new(ins, ins * cyc_mult, ins * 0.3, ins * 0.01, ins * 0.02, ins * 0.001);
        let proxy = searcher.search(&t);
        let pred = searcher.predict(&proxy, &m);
        assert!(pred.ins < 6.0 * ins, "predicted {} for target {}", pred.ins, ins);
    });
}

/// Proxy cost is platform-covariant: a proxy always takes longer on the
/// slow platform B than on A (B is slower for every block).
#[test]
fn proxies_slow_down_on_knl() {
    check("proxies_slow_down_on_knl", 128, |g| {
        let (points, flops) = (g.draw(1e3..1e6), g.draw(1.0..16.0));
        let ma = machine();
        let mb = Machine::new(platform_b(), MpiFlavor::OpenMpi);
        let searcher = ProxySearcher::new(&ma);
        let kernel = siesta_perfmodel::KernelDesc::stencil(points, flops, points * 8.0);
        let proxy = searcher.search(&ma.cpu().counters(&kernel));
        if proxy.total_reps() > 0 {
            let ta = proxy.time_ns_on(ma.cpu(), searcher.blocks());
            let tb = proxy.time_ns_on(mb.cpu(), searcher.blocks());
            assert!(tb > ta, "B ({tb}) not slower than A ({ta})");
        }
    });
}

/// Communication shrinking is monotone in the factor and never increases
/// the volume.
#[test]
fn shrink_is_monotone_in_factor() {
    check("shrink_is_monotone_in_factor", 128, |g| {
        let (bytes, k1, k2) = (g.draw(1u64..100_000_000), g.draw(1.0..50.0), g.draw(1.0..50.0));
        let s = CommShrink::fit(&machine().net);
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        let v_lo = s.shrink_bytes(bytes, lo);
        let v_hi = s.shrink_bytes(bytes, hi);
        assert!(v_lo <= bytes);
        assert!(v_hi <= v_lo, "shrink not monotone: k={lo}→{v_lo}, k={hi}→{v_hi}");
    });
}

#[test]
fn search_is_deterministic() {
    let m = machine();
    let s1 = ProxySearcher::new(&m);
    let s2 = ProxySearcher::new(&m);
    let t = CounterVec::new(1e6, 2e6, 3e5, 2e4, 1.5e4, 300.0);
    assert_eq!(s1.search(&t), s2.search(&t));
    assert_eq!(s1.b_matrix(), s2.b_matrix());
}
