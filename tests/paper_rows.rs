//! The paper's rows, checked against the committed bench baselines.
//!
//! CI pins every `sim` leaf of `results/baselines/BENCH_*.json` exactly
//! to a fresh run of its binary, so these checks hold the simulator to
//! the paper at no simulation cost. The tolerances are the paper's
//! rounding or the deviations EXPERIMENTS.md records.

use fred_bench::report::{parse, Value};

/// The `sim` section of `results/baselines/BENCH_<name>.json`.
fn sim(name: &str) -> Value {
    let path = format!(
        "{}/results/baselines/BENCH_{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let report = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    report.get("sim").expect("baseline has sim metrics").clone()
}

fn leaf(sim: &Value, key: &str) -> f64 {
    sim.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no numeric sim leaf `{key}`"))
}

#[test]
fn committed_baselines_hold_the_paper_rows() {
    // Table 4: the wafer's switch area and power.
    let table4 = sim("table4");
    assert_eq!(leaf(&table4, "total_switch_area_mm2"), 25_195.0);
    assert_eq!(leaf(&table4, "total_power_w"), 179.35);

    // Fig 4: streaming all of the 5x4 mesh's 128 GB/s channels at full
    // rate needs 1152 GB/s links, and at 750 GB/s the mesh streams at
    // 0.651 of line rate.
    let fig4 = sim("fig4");
    assert_eq!(leaf(&fig4, "baseline_required_link_bw_gbps"), 1152.0);
    let line_rate = leaf(&fig4, "baseline_line_rate_fraction");
    assert_eq!(
        (line_rate * 1e3).round(),
        651.0,
        "fig4 line rate {line_rate}"
    );

    // Fig 10: Fred-D's speedups within 3% of the paper's, and every
    // Fred fabric faster than the mesh. Fred-C is not asserted below
    // Fred-D: on ResNet-152 it edges past it (deviation D4).
    let fig10 = sim("fig10");
    for (model, paper) in [
        ("ResNet-152", 1.76),
        ("Transformer-17B", 1.87),
        ("GPT-3", 1.34),
        ("Transformer-1T", 1.40),
    ] {
        let fred_d = leaf(&fig10, &format!("{model}/fredd_speedup"));
        assert!(
            (fred_d / paper - 1.0).abs() <= 0.03,
            "fig10 {model}: Fred-D {fred_d:.3}x, paper {paper}x"
        );
        for fabric in ["fredc", "fredd"] {
            let speedup = leaf(&fig10, &format!("{model}/{fabric}_speedup"));
            assert!(speedup > 1.0, "fig10 {model}: {fabric} {speedup}x");
        }
    }

    // Fig 5: under Fred-D every phase takes the same time whatever the
    // placement, while on the mesh some phase varies at least 3x.
    let fig5 = sim("fig5_placement");
    let spread = |fabric: &str, phase: &str| {
        let times: Vec<f64> = ["MpPpDp", "MpDpPp", "DpPpMp", "PpMpDp"]
            .iter()
            .map(|placement| leaf(&fig5, &format!("{fabric}/{placement}/{phase}_ms")))
            .collect();
        let max = times.iter().copied().fold(f64::MIN, f64::max);
        let min = times.iter().copied().fold(f64::MAX, f64::min);
        max / min
    };
    for phase in ["MP", "DP", "PP"] {
        let fred_d = spread("Fred-D", phase);
        assert!(fred_d <= 1.001, "fig5 Fred-D {phase} varies {fred_d}x");
    }
    let mesh = ["MP", "DP", "PP"].map(|phase| spread("Baseline", phase));
    assert!(
        mesh.iter().any(|&s| s >= 3.0),
        "fig5 mesh phase spreads {mesh:?}"
    );
}

/// Every `<model>/<strategy>/<metric>` leaf of `sim`, as `(strategy,
/// value)` in report order.
fn per_strategy(sim: &Value, model: &str, metric: &str) -> Vec<(String, f64)> {
    let Value::Obj(leaves) = sim else {
        panic!("sim section is not an object")
    };
    leaves
        .iter()
        .filter_map(|(key, v)| {
            let rest = key.strip_prefix(model)?.strip_prefix('/')?;
            let strategy = rest.strip_suffix(metric)?.strip_suffix('/')?;
            Some((strategy.to_owned(), v.as_f64()?))
        })
        .collect()
}

#[test]
fn committed_baselines_hold_fig9_fig11_and_the_known_deviations() {
    let within_1pct = |got: f64, want: f64| (got / want - 1.0).abs() <= 0.01;

    // Fig 9, the wafer-wide MP All-Reduce: Fred-C's 3000 GB/s against
    // the mesh's 1500 halves the time, and Fred-D's in-network
    // reduction sends 1 / (2(n−1)/n) of Fred-C's endpoint traffic, 1.9×
    // less at n = 20.
    let fig9 = sim("fig9");
    let secs = |row: &str| leaf(&fig9, &format!("{row}/secs"));
    let mp20 = |fabric: &str| secs(&format!("MP(20)-DP(1)-PP(1)/{fabric}/MP"));
    let base_over_c = mp20("Baseline") / mp20("Fred-C");
    assert!(
        within_1pct(base_over_c, 2.0),
        "fig9 MP(20): baseline / Fred-C time {base_over_c}"
    );
    let c_over_d = mp20("Fred-C") / mp20("Fred-D");
    assert!(
        within_1pct(c_over_d, 2.0 * 19.0 / 20.0),
        "fig9 MP(20): Fred-C / Fred-D time {c_over_d}"
    );

    // Fig 9, MP(2)-DP(5)-PP(2): Fred-A's DP crossover (375 GB/s against
    // the mesh's 750 doubles the time), with Fred-B in between.
    let hybrid = |fabric: &str, phase: &str| secs(&format!("MP(2)-DP(5)-PP(2)/{fabric}/{phase}"));
    let dp = |fabric: &str| hybrid(fabric, "DP");
    let a_over_base = dp("Fred-A") / dp("Baseline");
    assert!(
        within_1pct(a_over_base, 2.0),
        "fig9 DP: Fred-A / baseline time {a_over_base}"
    );
    assert!(
        dp("Baseline") < dp("Fred-B") && dp("Fred-B") < dp("Fred-A"),
        "fig9 DP: Fred-B {} s is not between the baseline's {} s and Fred-A's {} s",
        dp("Fred-B"),
        dp("Baseline"),
        dp("Fred-A")
    );

    // Fig 11: Fred-D beats the mesh on every strategy of both sweeps.
    let fig11 = sim("fig11");
    let mut strategies = 0;
    for model in ["Transformer-17B", "Transformer-1T"] {
        let base = per_strategy(&fig11, model, "base_ms_per_sample");
        let fred_d = per_strategy(&fig11, model, "fredd_ms_per_sample");
        assert_eq!(base.len(), fred_d.len(), "fig11 {model}: unpaired rows");
        for ((strategy, b), (s, d)) in base.iter().zip(&fred_d) {
            assert_eq!(strategy, s, "fig11 {model}: rows out of step");
            assert!(
                d < b,
                "fig11 {model} {strategy}: Fred-D {d} ms, baseline {b} ms"
            );
        }
        strategies += fred_d.len();
    }
    assert_eq!(strategies, 15, "fig11 strategy count");

    // The known deviations of EXPERIMENTS.md, asserted as they stand:
    // closing one fails here, and its row moves up to the paper's.
    // D2: Fred-A's wafer-wide All-Reduce is slower than the mesh's
    // (the paper has it faster, 1850 against 1500 GB/s).
    let a_over_base_mp = mp20("Fred-A") / mp20("Baseline");
    assert!(
        a_over_base_mp > 1.0,
        "D2: Fred-A / baseline MP(20) time {a_over_base_mp}"
    );
    // D3: the mesh's PP phase runs at 375 GB/s, half its MP phase's 750
    // (the paper has both at 750).
    let pp_over_mp = hybrid("Baseline", "PP") / hybrid("Baseline", "MP");
    assert!(
        within_1pct(pp_over_mp, 2.0),
        "D3: baseline PP / MP time {pp_over_mp}"
    );
    // D4: on ResNet-152 Fred-C edges past Fred-D.
    let fig10 = sim("fig10");
    let fred_c = leaf(&fig10, "ResNet-152/fredc_speedup");
    let fred_d = leaf(&fig10, "ResNet-152/fredd_speedup");
    assert!(
        fred_c > fred_d,
        "D4: ResNet-152 Fred-C {fred_c}x, Fred-D {fred_d}x"
    );
    // D5: pure DP stays Fred-D's fastest strategy, and the sweep
    // averages overshoot the paper's.
    for (model, paper) in [("Transformer-17B", 1.63), ("Transformer-1T", 1.44)] {
        let fred_d = per_strategy(&fig11, model, "fredd_ms_per_sample");
        let (fastest, _) = fred_d
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("fig11 rows");
        assert_eq!(fastest, "MP(1)-DP(20)-PP(1)", "D5: {model}");
        let average = leaf(&fig11, &format!("{model}/avg_speedup"));
        assert!(
            average > paper,
            "D5: {model} average speedup {average}x, paper {paper}x"
        );
    }
}

#[test]
fn committed_baselines_hold_fig6_the_memory_fit_the_mesh_collapse_and_density() {
    let within = |got: f64, want: f64, tol: f64| (got / want - 1.0).abs() <= tol;

    // Fig 6(b), MP(5)-DP(3)-PP(1): the mesh's five concurrent DP
    // All-Reduces of 1 GB collide under X-Y routing and run at 375 GB/s
    // effective, a ring's endpoint traffic over their time; Fred-D runs
    // both phases conflict-free at the full 3 TB/s.
    let fig6 = sim("fig6_nonaligned");
    let bytes = 1e9;
    let ring = fred::collectives::cost::endpoint_all_reduce_traffic(3, bytes);
    let mesh_dp = ring / (leaf(&fig6, "Baseline/DP_ms") * 1e-3);
    assert!(within(mesh_dp, 375e9, 1e-3), "fig6 mesh DP {mesh_dp} B/s");
    for phase in ["MP", "DP"] {
        let fred_d = bytes / (leaf(&fig6, &format!("Fred-D/{phase}_ms")) * 1e-3);
        assert!(
            within(fred_d, 3e12, 1e-3),
            "fig6 Fred-D {phase} {fred_d} B/s"
        );
    }

    // §3.1 / Table 6: GPT-3 and Transformer-1T fit no aligned strategy
    // in NPU memory, so they stream their weights; ResNet-152 and
    // Transformer-17B fit 18 each and run weight-stationary.
    let memory = sim("memory_feasibility");
    for (model, fitting) in [
        ("ResNet-152", 18.0),
        ("Transformer-17B", 18.0),
        ("GPT-3", 0.0),
        ("Transformer-1T", 0.0),
    ] {
        let got = leaf(&memory, &format!("{model}/strategies_fitting"));
        assert_eq!(got, fitting, "§3.1 {model}: {got} strategies fit");
    }

    // §8.3: the mesh's streaming line rate collapses as the wafer
    // grows, falling at every size from 0.84 at 4×4 to 0.19 at 16×16.
    let scaling = sim("scaling");
    let rates: Vec<f64> = ["4x4", "5x5", "6x6", "8x8", "12x12", "16x16"]
        .iter()
        .map(|size| leaf(&scaling, &format!("mesh_line_rate_fraction/{size}")))
        .collect();
    assert!(
        rates.windows(2).all(|w| w[1] < w[0]),
        "§8.3 line rates {rates:?}"
    );
    let percent = |r: f64| (r * 100.0).round();
    assert_eq!((percent(rates[0]), percent(rates[5])), (84.0, 19.0));

    // Table 4 / §6.2.3: denser wafer I/O shrinks the switches to 18.4%
    // of today's area at 250 GB/s/mm and to the 5% floor at 1 TB/s/mm.
    let table4 = sim("table4");
    assert_eq!(leaf(&table4, "area_scale_pct/250GBps_mm"), 18.455616);
    assert_eq!(leaf(&table4, "area_scale_pct/1000GBps_mm"), 5.0);
}

#[test]
fn committed_baselines_hold_the_multi_wafer_and_expert_parallel_rows() {
    // §8.3 multi-wafer: a 10 GB hierarchical global All-Reduce's
    // effective NPU bandwidth in TB/s, for 2, 3 and 4 wafers, at each
    // inter-wafer channel bandwidth. 128 GB/s channels cap it near
    // 1 TB/s and below; 512 GB/s reaches the full 3 TB/s only up to 3
    // wafers; 2 TB/s reaches it at all three counts.
    let scaling = sim("scaling");
    for (channel, want) in [
        ("128.0 GB/s", [1.02, 0.77, 0.68]),
        ("512.0 GB/s", [3.00, 3.00, 2.73]),
        ("2.00 TB/s", [3.00, 3.00, 3.00]),
    ] {
        let got = [2, 3, 4].map(|wafers| {
            let ms = leaf(&scaling, &format!("global_ar_ms/{wafers}w/{channel}"));
            (10e9 / (ms * 1e-3) / 1e10).round() / 100.0
        });
        assert_eq!(
            got, want,
            "§8.3 multi-wafer at {channel}: TB/s per wafer count"
        );
    }

    // §8.3 EP All-to-All: with no reduction to run in the switches,
    // Fred-B takes exactly Fred-A's time and Fred-D exactly Fred-C's on
    // every layout. Fred-C/D beat the mesh on all five layouts; Fred-A/B
    // beat it on four and tie it at 4 x EP(5).
    let ep = sim("ep_alltoall");
    let layouts = ["1xEP20", "2xEP10", "4xEP5", "5xEP4", "10xEP2"];
    for layout in layouts {
        let ms = |config: &str| leaf(&ep, &format!("{layout}/{config}/ms"));
        let base = ms("Baseline");
        assert_eq!(ms("Fred-B"), ms("Fred-A"), "§8.3 EP {layout}: Fred-B");
        assert_eq!(ms("Fred-D"), ms("Fred-C"), "§8.3 EP {layout}: Fred-D");
        assert!(ms("Fred-C") < base, "§8.3 EP {layout}: Fred-C");
        let fred_a_wins = ms("Fred-A") < base;
        assert_eq!(fred_a_wins, layout != "4xEP5", "§8.3 EP {layout}: Fred-A");
    }
    let five_places = |ms: f64| (ms * 1e5).round() / 1e5;
    let tie = ["Fred-A", "Baseline"].map(|c| five_places(leaf(&ep, &format!("4xEP5/{c}/ms"))));
    assert_eq!(
        tie,
        [1.60032, 1.60028],
        "§8.3 EP 4xEP5: Fred-A and the mesh"
    );
}

/// fredbench's `paper_err` over `rows`, each `(simulated, paper)`: the
/// mean relative error, summed in row order.
fn paper_err(rows: &[(f64, f64)]) -> f64 {
    rows.iter()
        .map(|(sim, paper)| (sim - paper).abs() / paper)
        .sum::<f64>()
        / rows.len() as f64
}

#[test]
fn paper_err_stands_as_committed() {
    // The eight numbers the paper quotes: fig10's Fred-D speedups and
    // fig11's average speedups and exposed-communication gains. Like
    // D2–D5, the error is asserted as it stands: a change that moves a
    // row states the new value and why. Most of it is D5's
    // Transformer-1T average speedup.
    let (fig10, fig11) = (sim("fig10"), sim("fig11"));
    let fig10_row = |model: &str, paper: f64| {
        let speedup = leaf(&fig10, &format!("{model}/fredd_speedup"));
        (speedup, paper)
    };
    let fig11_rows = |model: &str, speedup: f64, gain: f64| {
        [
            (leaf(&fig11, &format!("{model}/avg_speedup")), speedup),
            (leaf(&fig11, &format!("{model}/avg_exposed_gain")), gain),
        ]
    };
    // Each fredbench `train-*` workload's four rows, in its order.
    let mut stationary = vec![
        fig10_row("ResNet-152", 1.76),
        fig10_row("Transformer-17B", 1.87),
    ];
    stationary.extend(fig11_rows("Transformer-17B", 1.63, 4.22));
    let mut streaming = vec![fig10_row("GPT-3", 1.34), fig10_row("Transformer-1T", 1.40)];
    streaming.extend(fig11_rows("Transformer-1T", 1.44, 3.92));
    let all: Vec<(f64, f64)> = [stationary.clone(), streaming.clone()].concat();
    let four_places = |err: f64| (err * 1e4).round() / 1e4;
    assert_eq!(four_places(paper_err(&all)), 0.1571);
    assert_eq!(four_places(paper_err(&stationary)), 0.0782);
    assert_eq!(four_places(paper_err(&streaming)), 0.2359);
}
