//! Figure 10 — end-to-end training-time breakdown.
//!
//! Simulates one training iteration of every Table 6 workload under its
//! Table 6 strategy on the Baseline, Fred-C and Fred-D fabrics,
//! printing the normalised breakdown (compute + exposed comm per type)
//! and the end-to-end speedup over the baseline.
//!
//! Paper headline: Fred improves ResNet-152 / Transformer-17B / GPT-3 /
//! Transformer-1T by 1.76× / 1.87× / 1.34× / 1.4× (Fred-D vs baseline);
//! Fred-C lands between the baseline and Fred-D (e.g. 1.41× for
//! ResNet-152). Ours does on the other three workloads, but on
//! ResNet-152 Fred-C reads 1.756×, past Fred-D's 1.738× (deviation D4
//! in EXPERIMENTS.md).

use fred_bench::table::{fmt_secs, Table};
use fred_bench::traceopt::TraceOpts;
use fred_core::params::FabricConfig;
use fred_sim::fault::FaultPlan;
use fred_workloads::backend::FabricBackend;
use fred_workloads::model::DnnModel;
use fred_workloads::report::{CommType, TrainingReport};
use fred_workloads::schedule::ScheduleParams;
use fred_workloads::trainer::simulate_faulted;

fn main() {
    let mut opts = TraceOpts::from_args("fig10");
    let configs = [
        FabricConfig::BaselineMesh,
        FabricConfig::FredC,
        FabricConfig::FredD,
    ];
    let mut summary = Table::new(vec!["workload", "Fred-C speedup", "Fred-D speedup"]);
    let none = FaultPlan::none();

    for model in DnnModel::all_paper_workloads() {
        let strategy = model.default_strategy;
        let params = ScheduleParams::paper_default(&model, strategy);
        let mut table = Table::new(vec![
            "config",
            "total",
            "compute",
            "input_load",
            "mp",
            "pp",
            "dp",
            "streaming",
            "norm (vs baseline)",
        ]);
        let mut reports: Vec<TrainingReport> = Vec::new();
        for config in configs {
            let backend = FabricBackend::new(config);
            opts.name_links(&backend.topology());
            let r =
                simulate_faulted(&model, strategy, &backend, params, &none, opts.sink()).unwrap();
            opts.metric(
                format!("{}/{}/total_secs", model.name, config.name()),
                r.total.as_secs(),
            );
            reports.push(r);
        }
        let base_total = reports[0].total.as_secs();
        for r in &reports {
            table.row(vec![
                r.config.clone(),
                fmt_secs(r.total.as_secs()),
                fmt_secs(r.compute.as_secs()),
                fmt_secs(r.exposed_for(CommType::InputLoad).as_secs()),
                fmt_secs(r.exposed_for(CommType::Mp).as_secs()),
                fmt_secs(r.exposed_for(CommType::Pp).as_secs()),
                fmt_secs(r.exposed_for(CommType::Dp).as_secs()),
                fmt_secs(r.exposed_for(CommType::Streaming).as_secs()),
                format!("{:.3}", r.total.as_secs() / base_total),
            ]);
        }
        table.print(&format!(
            "Fig 10 — {} [{}], minibatch {}",
            model.name, strategy, params.minibatch
        ));
        opts.metric(
            format!("{}/fredc_speedup", model.name),
            reports[1].speedup_over(&reports[0]),
        );
        opts.metric(
            format!("{}/fredd_speedup", model.name),
            reports[2].speedup_over(&reports[0]),
        );
        summary.row(vec![
            model.name.clone(),
            format!("{:.2}x", reports[1].speedup_over(&reports[0])),
            format!("{:.2}x", reports[2].speedup_over(&reports[0])),
        ]);
    }
    summary.print("Fig 10 — end-to-end speedup over the baseline mesh");
    println!(
        "\npaper reference (Fred-D): ResNet-152 1.76x, Transformer-17B 1.87x, \
         GPT-3 1.34x, Transformer-1T 1.40x"
    );
    opts.finish();
}
