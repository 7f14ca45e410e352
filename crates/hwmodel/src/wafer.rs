//! Wafer power/area budget checks (§6.2.1–§6.2.2).

use fred_core::params::PhysicalParams;

use crate::area::{table4_inventory, total_switch_area};
use crate::power::table4_power_total;

/// The composed wafer budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferBudget {
    /// NPU power (compute + HBM), W.
    pub npu_power: f64,
    /// I/O controller power, W.
    pub io_power: f64,
    /// FRED fabric power (switches + wiring), W.
    pub fabric_power: f64,
    /// NPU + I/O area, mm².
    pub compute_area: f64,
    /// FRED switch-chiplet area, mm².
    pub fabric_area: f64,
    /// Total wafer power budget, W.
    pub power_budget: f64,
    /// Usable wafer area, mm².
    pub area_budget: f64,
}

impl WaferBudget {
    /// The paper's 20-NPU Fred instance.
    pub fn paper_fred() -> WaferBudget {
        let p = PhysicalParams::paper();
        let inv = table4_inventory();
        WaferBudget {
            npu_power: p.npu_count as f64 * p.npu_power,
            io_power: p.io_count as f64 * 5.0,
            fabric_power: table4_power_total(&inv),
            compute_area: p.npu_count as f64 * p.npu_area + p.io_count as f64 * p.io_area,
            fabric_area: total_switch_area(&inv),
            power_budget: p.wafer_power_budget,
            area_budget: p.wafer_area,
        }
    }

    /// Total power drawn, W.
    pub fn total_power(&self) -> f64 {
        self.npu_power + self.io_power + self.fabric_power
    }

    /// Total area claimed, mm².
    pub fn total_area(&self) -> f64 {
        self.compute_area + self.fabric_area
    }

    /// Unclaimed wafer area, mm² — the §6.2.3 argument for why large
    /// low-power FRED switches are affordable.
    pub fn unclaimed_area(&self) -> f64 {
        self.area_budget - self.total_area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_instance_fits_both_budgets() {
        let b = WaferBudget::paper_fred();
        assert!(
            b.total_power() <= b.power_budget,
            "power {} > {}",
            b.total_power(),
            b.power_budget
        );
        assert!(
            b.unclaimed_area() >= 0.0,
            "area {} > {}",
            b.total_area(),
            b.area_budget
        );
    }

    #[test]
    fn compute_area_matches_section_6_2_2() {
        let b = WaferBudget::paper_fred();
        assert_eq!(b.compute_area, 26_640.0);
        assert_eq!(b.fabric_area, 25_195.0);
        // There is still unclaimed area left.
        assert!(b.unclaimed_area() > 15_000.0);
    }

    #[test]
    fn power_density_within_cooling_roadmap() {
        // §6.2.2: ~22 W/cm^2 anticipated density, within HIR cooling
        // projections.
        let b = WaferBudget::paper_fred();
        let d = b.total_power() / (b.area_budget / 100.0);
        assert!(d > 15.0 && d < 25.0, "density {d}");
    }

    #[test]
    fn npu_power_dominates() {
        let b = WaferBudget::paper_fred();
        assert!(b.npu_power / b.total_power() > 0.9);
        assert!(b.total_power() < b.power_budget);
    }
}
