//! Table 4 — FRED hardware overhead, plus the §6.2.3 I/O-density sweep.
//!
//! Closed-form hardware-model tables: no simulation runs, so `--trace`
//! / `--dashboard` outputs and the report's `analysis` are empty, but
//! `--report` carries every printed number as a `sim.*` leaf for
//! `bench-diff`.

use fred_bench::table::Table;
use fred_bench::traceopt::TraceOpts;
use fred_core::params::PhysicalParams;
use fred_hwmodel::area::{
    area_scale_at_density, table4_inventory, total_switch_area, BASE_IO_DENSITY,
};
use fred_hwmodel::power::{table4_power_total, total_switch_power, TABLE4_WIRING_POWER};
use fred_hwmodel::wafer::WaferBudget;

fn main() {
    let mut opts = TraceOpts::from_args("table4");
    let inv = table4_inventory();
    let mut t = Table::new(vec![
        "component",
        "count",
        "area (mm^2)",
        "power (W)",
        "uSwitches",
    ]);
    for c in &inv {
        t.row(vec![
            c.name.clone(),
            c.count.to_string(),
            format!("{:.0}", c.area_mm2),
            format!("{:.2}", c.power_w),
            c.interconnect().stats().micro_switches.to_string(),
        ]);
    }
    t.row(vec![
        "Additional Wafer-Scale Wiring".into(),
        "-".into(),
        "-".into(),
        format!("{TABLE4_WIRING_POWER:.0}"),
        "-".into(),
    ]);
    t.row(vec![
        "Total".into(),
        "-".into(),
        format!("{:.0}", total_switch_area(&inv)),
        format!("{:.2}", table4_power_total(&inv)),
        "-".into(),
    ]);
    t.print("Table 4 — HW overhead of the Fred implementation (Fig 8b)");
    println!(
        "switch power alone: {:.2} W; total {:.2} W = {:.2}% of the 15 kW budget \
         (paper: ~1.2%)",
        total_switch_power(&inv),
        table4_power_total(&inv),
        100.0 * table4_power_total(&inv) / PhysicalParams::paper().wafer_power_budget
    );

    let b = WaferBudget::paper_fred();
    println!(
        "\nwafer budget: power {:.0}/{:.0} W, area {:.0}/{:.0} mm^2 (unclaimed {:.0} mm^2)",
        b.total_power(),
        b.power_budget,
        b.total_area(),
        b.area_budget,
        b.unclaimed_area()
    );

    opts.metric("total_switch_area_mm2", total_switch_area(&inv));
    opts.metric("total_power_w", table4_power_total(&inv));
    opts.metric("switch_power_w", total_switch_power(&inv));
    opts.metric(
        "power_budget_pct",
        100.0 * table4_power_total(&inv) / PhysicalParams::paper().wafer_power_budget,
    );
    opts.metric("wafer_total_power_w", b.total_power());
    opts.metric("wafer_total_area_mm2", b.total_area());
    opts.metric("wafer_unclaimed_area_mm2", b.unclaimed_area());

    // §6.2.3 discussion: switch area vs I/O escape density.
    let mut t = Table::new(vec!["I/O density (GB/s/mm)", "relative switch area"]);
    for d in [BASE_IO_DENSITY, 250e9, 500e9, 1e12] {
        t.row(vec![
            format!("{:.1}", d / 1e9),
            format!("{:.1}%", 100.0 * area_scale_at_density(d)),
        ]);
        opts.metric(
            format!("area_scale_pct/{:.0}GBps_mm", d / 1e9),
            100.0 * area_scale_at_density(d),
        );
    }
    t.print("§6.2.3 — switch area vs I/O density (paper: 18.4% @250, ~5% @UCIe-A)");
    opts.finish();
}
