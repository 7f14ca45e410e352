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

    // Fig 4: the mesh streams at 0.651 of line rate.
    let line_rate = leaf(&sim("fig4"), "baseline_line_rate_fraction");
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
