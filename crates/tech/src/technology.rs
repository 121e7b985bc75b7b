//! The technology bundle consumed by the synthesis flow.

use crate::composite::CompositeBuffer;
use crate::units;
use crate::{InverterKind, InverterLibrary, WireCode, WireLibrary, WireWidth};
use serde::Serialize;

/// A supply-voltage corner at which the clock network is evaluated.
///
/// The ISPD'09 contest evaluates sink latencies at 1.2 V and 1.0 V; the
/// Clock Latency Range (CLR) objective is the difference between the largest
/// latency at the low corner and the smallest latency at the high corner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SupplyCorner {
    /// Corner name, e.g. `"1.2V"`.
    pub name: &'static str,
    /// Supply voltage in volts.
    pub vdd: f64,
}

/// Complete technology description: wire and inverter libraries, slew limit
/// and supply corners, plus the voltage-derating model for delays.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Technology {
    wires: WireLibrary,
    inverters: InverterLibrary,
    /// Maximum allowed 10%–90% slew anywhere in the network, in ps.
    pub slew_limit: f64,
    /// Nominal supply corner (inverters are characterized here).
    pub nominal_corner: SupplyCorner,
    /// Reduced-supply corner used for the CLR objective.
    pub low_corner: SupplyCorner,
    /// Transistor threshold voltage used by the alpha-power derating model.
    pub threshold_voltage: f64,
    /// Velocity-saturation exponent of the alpha-power derating model.
    pub alpha: f64,
    /// Clock frequency in GHz used for power reporting.
    pub clock_freq_ghz: f64,
}

impl Technology {
    /// Builds a technology from its parts.
    pub fn new(
        wires: WireLibrary,
        inverters: InverterLibrary,
        slew_limit: f64,
        nominal_corner: SupplyCorner,
        low_corner: SupplyCorner,
    ) -> Self {
        assert!(slew_limit > 0.0, "slew limit must be positive");
        assert!(
            low_corner.vdd <= nominal_corner.vdd,
            "low corner must not exceed the nominal supply"
        );
        Self {
            wires,
            inverters,
            slew_limit,
            nominal_corner,
            low_corner,
            threshold_voltage: 0.35,
            alpha: 1.3,
            clock_freq_ghz: 1.0,
        }
    }

    /// The 45 nm ISPD'09-contest-style technology used throughout the paper:
    /// two wire widths, a small and a large clock inverter with the Table-I
    /// electrical values, a 100 ps slew limit and 1.2 V / 1.0 V corners.
    pub fn ispd09() -> Self {
        let wires = WireLibrary::new(
            WireCode::new(WireWidth::Narrow, 0.16, 0.17),
            WireCode::new(WireWidth::Wide, 0.08, 0.21),
        );
        let inverters = InverterLibrary::new(vec![
            InverterKind {
                id: 0,
                name: "INV_SMALL",
                input_cap: 4.2,
                output_cap: 6.1,
                output_res: 440.0,
                intrinsic_delay: 6.0,
            },
            InverterKind {
                id: 1,
                name: "INV_LARGE",
                input_cap: 35.0,
                output_cap: 80.0,
                output_res: 61.2,
                intrinsic_delay: 9.0,
            },
        ]);
        Technology::new(
            wires,
            inverters,
            100.0,
            SupplyCorner {
                name: "1.2V",
                vdd: 1.2,
            },
            SupplyCorner {
                name: "1.0V",
                vdd: 1.0,
            },
        )
    }

    /// The TI-style 45 nm technology used for the scalability study
    /// (Section V of the paper): same electrical structure as
    /// [`Technology::ispd09`], but flows built on it drive the tree with
    /// groups of large inverters for runtime, as in the paper.
    pub fn ti45() -> Self {
        Technology::ispd09()
    }

    /// The wire library.
    pub fn wires(&self) -> &WireLibrary {
        &self.wires
    }

    /// The inverter library.
    pub fn inverters(&self) -> &InverterLibrary {
        &self.inverters
    }

    /// The wire code for a width class.
    pub fn wire(&self, width: WireWidth) -> &WireCode {
        self.wires.code(width)
    }

    /// The smallest (weakest) inverter in the library.
    pub fn small_inverter(&self) -> &InverterKind {
        self.inverters.smallest()
    }

    /// The strongest single inverter in the library.
    pub fn large_inverter(&self) -> &InverterKind {
        self.inverters.strongest()
    }

    /// Builds a composite buffer of `parallel` copies of `base`.
    pub fn composite(&self, base: &InverterKind, parallel: u32) -> CompositeBuffer {
        CompositeBuffer::new(*base, parallel)
    }

    /// Delay/resistance derating factor at supply `vdd`, relative to the
    /// nominal corner (factor 1.0 at nominal, above 1.0 for lower supplies).
    ///
    /// The model is the alpha-power law: drive current scales as
    /// `(VDD − Vt)^α`, and the delay of a stage scales as
    /// `VDD / (VDD − Vt)^α`.
    pub fn derate(&self, vdd: f64) -> f64 {
        self.derate_against(vdd, self.nominal_corner.vdd)
    }

    /// [`Technology::derate`] relative to a nominal supply `nom` instead of
    /// this technology's own nominal corner: the factor a copy of the
    /// technology with its nominal corner moved to `nom` would report.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` does not exceed the threshold voltage.
    pub fn derate_against(&self, vdd: f64, nom: f64) -> f64 {
        assert!(
            vdd > self.threshold_voltage,
            "supply voltage must exceed the threshold voltage"
        );
        let num = vdd / (vdd - self.threshold_voltage).powf(self.alpha);
        let den = nom / (nom - self.threshold_voltage).powf(self.alpha);
        num / den
    }

    /// Maximum load capacitance (fF) that a driver with output resistance
    /// `output_res` can drive without violating the slew limit, assuming a
    /// single-pole output transition (`t_slew ≈ ln 9 · R · C`).
    ///
    /// This is the *slew-free capacitance* used when deciding whether a
    /// subtree crossing an obstacle needs a detour (paper, Section IV-A,
    /// Step 2), with the low-voltage corner's derating applied for safety.
    pub fn slew_free_cap(&self, output_res: f64) -> f64 {
        let worst_res = output_res * self.derate(self.low_corner.vdd);
        self.slew_limit / (units::SLEW_LN9 * worst_res * units::RC_TO_PS)
    }

    /// Dynamic power in µW of switching `cap_ff` femtofarads at the nominal
    /// supply and the technology's clock frequency.
    pub fn switching_power_uw(&self, cap_ff: f64) -> f64 {
        units::switching_power_uw(cap_ff, self.nominal_corner.vdd, self.clock_freq_ghz)
    }

    /// Both evaluation corners, nominal first.
    pub fn corners(&self) -> [SupplyCorner; 2] {
        [self.nominal_corner, self.low_corner]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ispd09_matches_table1_values() {
        let tech = Technology::ispd09();
        let small = tech.small_inverter();
        let large = tech.large_inverter();
        assert_eq!(small.input_cap, 4.2);
        assert_eq!(small.output_cap, 6.1);
        assert_eq!(small.output_res, 440.0);
        assert_eq!(large.input_cap, 35.0);
        assert_eq!(large.output_cap, 80.0);
        assert_eq!(large.output_res, 61.2);
        assert_eq!(tech.slew_limit, 100.0);
    }

    #[test]
    fn derating_is_one_at_nominal_and_larger_at_low_vdd() {
        let tech = Technology::ispd09();
        assert!((tech.derate(1.2) - 1.0).abs() < 1e-12);
        let low = tech.derate(1.0);
        assert!(low > 1.05 && low < 1.5, "low-corner derate = {low}");
    }

    #[test]
    fn derating_is_monotonic_in_vdd() {
        let tech = Technology::ispd09();
        let mut prev = tech.derate(0.8);
        for v in [0.9, 1.0, 1.1, 1.2] {
            let d = tech.derate(v);
            assert!(d < prev, "derate should decrease as VDD rises");
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "exceed the threshold voltage")]
    fn derating_below_threshold_panics() {
        let _ = Technology::ispd09().derate(0.2);
    }

    #[test]
    fn slew_free_cap_is_larger_for_stronger_drivers() {
        let tech = Technology::ispd09();
        let weak = tech.slew_free_cap(440.0);
        let strong = tech.slew_free_cap(55.0);
        assert!(strong > weak);
        // A 55 Ω driver under a 100 ps slew limit can drive on the order of
        // several hundred fF.
        assert!(strong > 300.0 && strong < 2000.0, "strong = {strong}");
    }

    #[test]
    fn corners_report_nominal_first() {
        let tech = Technology::ispd09();
        let [nom, low] = tech.corners();
        assert_eq!(nom.vdd, 1.2);
        assert_eq!(low.vdd, 1.0);
    }

    #[test]
    fn switching_power_scales_with_cap() {
        let tech = Technology::ispd09();
        let p1 = tech.switching_power_uw(1000.0);
        let p2 = tech.switching_power_uw(2000.0);
        assert!((p2 / p1 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "slew limit must be positive")]
    fn zero_slew_limit_rejected() {
        let t = Technology::ispd09();
        let _ = Technology::new(
            t.wires().clone(),
            t.inverters().clone(),
            0.0,
            t.nominal_corner,
            t.low_corner,
        );
    }
}
