//! Cross-crate integration: collective compilation (Table 2) routed and
//! functionally verified on FRED switches, plus the §5.3 placement
//! guarantee on the full 20-port wafer switch.

use fred::core::collective::{compile, Pattern};
use fred::core::flow::Flow;
use fred::core::interconnect::Interconnect;
use fred::core::placement::{Placement, PlacementPolicy, Strategy3D};
use fred::core::routing::route_flows;
use fred::core::switch::FredSwitch;

/// Every Table 2 pattern, simple and compound, routes and computes the
/// right reduction/broadcast on Fred3(12) — the L1 chiplet size of
/// Table 4.
#[test]
fn table2_patterns_verify_on_fred3_12() {
    let net = Interconnect::new(3, 12).unwrap();
    let patterns = vec![
        Pattern::Unicast { src: 0, dst: 11 },
        Pattern::Multicast {
            src: 3,
            dsts: vec![0, 5, 9, 11],
        },
        Pattern::Reduce {
            srcs: vec![1, 4, 7, 10],
            dst: 2,
        },
        Pattern::AllReduce {
            group: vec![0, 3, 6, 9],
        },
        Pattern::ReduceScatter {
            group: vec![2, 5, 8, 11],
        },
        Pattern::AllGather {
            group: vec![1, 6, 10],
        },
        Pattern::Scatter {
            src: 0,
            dsts: vec![4, 8],
        },
        Pattern::Gather {
            srcs: vec![3, 7],
            dst: 11,
        },
        Pattern::AllToAll {
            group: vec![0, 2, 4, 6, 8],
        },
    ];
    for p in patterns {
        for (i, step) in compile(&p).unwrap().iter().enumerate() {
            let routed =
                route_flows(&net, &step.flows).unwrap_or_else(|e| panic!("{p} step {i}: {e}"));
            routed
                .verify(&step.flows)
                .unwrap_or_else(|e| panic!("{p} step {i}: {e}"));
        }
    }
}

/// A switch programmed with all three 3D-parallelism phases of the
/// paper's GPT-3 strategy executes each phase correctly end to end.
#[test]
fn gpt3_strategy_phases_execute_on_wafer_switch() {
    let strategy = Strategy3D::new(2, 5, 2);
    let pl = Placement::new(strategy, PlacementPolicy::MpPpDp);
    let mut sw = FredSwitch::new(3, 20).unwrap();

    let mp_flows: Vec<Flow> = pl
        .all_mp_groups()
        .into_iter()
        .map(|g| Flow::all_reduce(g).unwrap())
        .collect();
    let dp_flows: Vec<Flow> = pl
        .all_dp_groups()
        .into_iter()
        .map(|g| Flow::all_reduce(g).unwrap())
        .collect();
    let mp = sw.program_phase("mp", mp_flows.clone()).unwrap();
    let dp = sw.program_phase("dp", dp_flows).unwrap();

    // Execute the MP phase: each pair of ports must end with its sum.
    let inputs: Vec<Option<Vec<f64>>> = (0..20).map(|p| Some(vec![p as f64])).collect();
    let out = sw.execute(mp, &inputs).unwrap();
    for f in &mp_flows {
        let expect: f64 = f.ips().iter().map(|&p| p as f64).sum();
        for &p in f.ops() {
            assert_eq!(out[p].as_deref(), Some(&[expect][..]), "port {p}");
        }
    }
    // DP phase also stored and executable.
    let out = sw.execute(dp, &inputs).unwrap();
    assert!(out.iter().filter(|o| o.is_some()).count() == 20);
}

/// §5.3: m = 2 suffers routing conflicts that m = 3 resolves; the paper
/// standardises on Fred3 for exactly this reason.
#[test]
fn m3_resolves_m2_conflicts() {
    let flows = vec![
        Flow::all_reduce([0usize, 2]).unwrap(),
        Flow::all_reduce([3usize, 4]).unwrap(),
        Flow::all_reduce([1usize, 5]).unwrap(),
    ];
    assert!(route_flows(&Interconnect::new(2, 8).unwrap(), &flows).is_err());
    let routed = route_flows(&Interconnect::new(3, 8).unwrap(), &flows).unwrap();
    routed.verify(&flows).unwrap();
}

/// The wafer fabric's in-network collective flow sets agree with the
/// §2.2 traffic law: D bytes per touched link regardless of group size.
#[test]
fn in_network_traffic_is_group_size_independent() {
    use fred::core::fabric::WaferFabric;
    use fred::core::params::{FabricConfig, PhysicalParams};
    let f = WaferFabric::new(FabricConfig::FredD, &PhysicalParams::paper());
    let d = 1e9;
    for n in [2usize, 4, 8, 20] {
        let group: Vec<usize> = (0..n).collect();
        let flows = f.in_network_all_reduce(&group, d);
        for (_, bytes) in &flows {
            assert_eq!(*bytes, d, "group size {n}");
        }
        // Per-NPU traffic: one up + one down flow of D bytes each.
        let npu_up_flows = flows
            .iter()
            .filter(|(route, _)| {
                let link = f.topology().link(route[0]);
                link.src == f.npu(0)
            })
            .count();
        assert_eq!(npu_up_flows, 1);
    }
}
