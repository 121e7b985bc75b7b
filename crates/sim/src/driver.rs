//! Driver models: clock source and buffer/inverter stages.

use contango_tech::CompositeBuffer;
use serde::{Deserialize, Serialize};

/// Ratio between the pull-up and pull-down effective resistance of an
/// inverter.
///
/// Real inverters are never perfectly symmetric; the residual asymmetry is
/// what makes rising and falling sink latencies diverge once skew has been
/// squeezed below a few picoseconds (paper, Section IV-G). The value models
/// a typical P/N imbalance after sizing for near-equal strength.
pub const RISE_FALL_ASYMMETRY: f64 = 1.04;

/// Sensitivity of a gate's delay to the slew of its input transition
/// (ps of additional delay per ps of input 10–90% slew).
pub const SLEW_DELAY_SENSITIVITY: f64 = 0.12;

/// Fraction of the input slew that leaks into the output transition time of
/// a gate (combined quadratically with the output-network slew).
pub const SLEW_PROPAGATION: f64 = 0.25;

/// Electrical description of the driver of one stage.
///
/// A driver is either the chip-level clock source (a voltage source with a
/// fixed output resistance) or a composite inverter; in both cases the stage
/// is modelled as a Thevenin source driving the stage's RC tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriverSpec {
    /// Effective output resistance at the nominal supply, in Ω.
    pub output_res: f64,
    /// Output (parasitic) capacitance added at the driving point, in fF.
    pub output_cap: f64,
    /// Input pin capacitance presented to the upstream stage, in fF.
    pub input_cap: f64,
    /// Intrinsic (unloaded) gate delay at the nominal supply, in ps.
    pub intrinsic_delay: f64,
    /// Whether the driver inverts polarity (an inverter) or not (the source
    /// or a true buffer).
    pub inverting: bool,
}

impl DriverSpec {
    /// Driver description of a composite inverter.
    pub fn from_composite(buffer: &CompositeBuffer) -> Self {
        Self {
            output_res: buffer.output_res(),
            output_cap: buffer.output_cap(),
            input_cap: buffer.input_cap(),
            intrinsic_delay: buffer.intrinsic_delay(),
            inverting: true,
        }
    }

    /// Output resistance for a given transition direction at a supply whose
    /// [`contango_tech::Technology::derate`] factor is `derate`.
    ///
    /// Rising outputs are driven by the (slightly weaker) pull-up network,
    /// falling outputs by the pull-down network; both derate with supply
    /// voltage.
    pub(crate) fn derated_res(&self, derate: f64, output_rising: bool) -> f64 {
        let asym = if output_rising {
            RISE_FALL_ASYMMETRY
        } else {
            1.0 / RISE_FALL_ASYMMETRY
        };
        self.output_res * asym * derate
    }
}

/// The chip-level clock source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Output resistance of the source driver, in Ω.
    pub output_res: f64,
    /// 10%–90% transition time of the source waveform, in ps.
    pub slew: f64,
}

impl SourceSpec {
    /// Creates a source with the given output resistance and input slew.
    pub fn new(output_res: f64, slew: f64) -> Self {
        Self { output_res, slew }
    }

    /// The ISPD'09-style source: a strong external driver with a clean edge.
    pub fn ispd09() -> Self {
        Self {
            output_res: 25.0,
            slew: 20.0,
        }
    }

    /// Driver view of the source (non-inverting, no intrinsic delay).
    pub fn as_driver(&self) -> DriverSpec {
        DriverSpec {
            output_res: self.output_res,
            output_cap: 0.0,
            input_cap: 0.0,
            intrinsic_delay: 0.0,
            inverting: false,
        }
    }
}

impl Default for SourceSpec {
    fn default() -> Self {
        Self::ispd09()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_tech::Technology;

    #[test]
    fn composite_driver_inherits_electricals() {
        let tech = Technology::ispd09();
        let c = tech.composite(tech.small_inverter(), 8);
        let d = DriverSpec::from_composite(&c);
        assert!((d.output_res - 55.0).abs() < 1e-9);
        assert!((d.input_cap - 33.6).abs() < 1e-9);
        assert!(d.inverting);
    }

    #[test]
    fn corner_resistance_rises_at_low_vdd() {
        let tech = Technology::ispd09();
        let c = tech.composite(tech.small_inverter(), 8);
        let d = DriverSpec::from_composite(&c);
        let nominal = d.derated_res(tech.derate(1.2), true);
        let low = d.derated_res(tech.derate(1.0), true);
        assert!(low > nominal);
    }

    #[test]
    fn rise_fall_asymmetry_is_applied() {
        let tech = Technology::ispd09();
        let c = tech.composite(tech.small_inverter(), 1);
        let d = DriverSpec::from_composite(&c);
        let up = d.derated_res(tech.derate(1.2), true);
        let down = d.derated_res(tech.derate(1.2), false);
        assert!(up > down);
        assert!((up / down - RISE_FALL_ASYMMETRY * RISE_FALL_ASYMMETRY).abs() < 1e-9);
    }

    #[test]
    fn source_driver_is_non_inverting_and_delay_free() {
        let s = SourceSpec::default();
        let d = s.as_driver();
        assert!(!d.inverting);
        assert_eq!(d.intrinsic_delay, 0.0);
        assert_eq!(d.input_cap, 0.0);
    }
}
