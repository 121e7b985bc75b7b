//! Evaluation reports: per-sink timing, skew, CLR and violation checks.

use serde::{Deserialize, Serialize};

/// Timing of one transition (rising or falling) at a sink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionTiming {
    /// Source-to-sink latency in ps.
    pub latency: f64,
    /// 10%–90% slew at the sink in ps.
    pub slew: f64,
}

/// Timing of one sink at one supply corner.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinkTiming {
    /// Sink identifier (as used in the netlist).
    pub sink_id: usize,
    /// Rising-transition timing.
    pub rise: TransitionTiming,
    /// Falling-transition timing.
    pub fall: TransitionTiming,
}

impl SinkTiming {
    /// The larger of the rise and fall latencies.
    pub fn max_latency(&self) -> f64 {
        self.rise.latency.max(self.fall.latency)
    }

    /// The smaller of the rise and fall latencies.
    pub fn min_latency(&self) -> f64 {
        self.rise.latency.min(self.fall.latency)
    }

    /// The larger of the rise and fall slews.
    pub fn max_slew(&self) -> f64 {
        self.rise.slew.max(self.fall.slew)
    }
}

/// Evaluation results at one supply corner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerReport {
    /// Supply voltage of this corner, in volts.
    pub vdd: f64,
    /// Per-sink timing, sorted by sink id.
    pub sinks: Vec<SinkTiming>,
    /// Worst 10%–90% slew observed anywhere in the network (including
    /// internal buffer inputs), in ps.
    pub max_slew: f64,
}

impl CornerReport {
    /// Largest sink latency over both transitions, in ps.
    pub fn max_latency(&self) -> f64 {
        LatencyExtremes::of(&self.sinks).max_latency()
    }

    /// Smallest sink latency over both transitions, in ps.
    pub fn min_latency(&self) -> f64 {
        LatencyExtremes::of(&self.sinks).min_latency()
    }

    /// Skew of the rising transition (max − min rise latency), in ps.
    pub fn rise_skew(&self) -> f64 {
        LatencyExtremes::of(&self.sinks).rise_skew()
    }

    /// Skew of the falling transition (max − min fall latency), in ps.
    pub fn fall_skew(&self) -> f64 {
        LatencyExtremes::of(&self.sinks).fall_skew()
    }

    /// Skew of this corner: the larger of the rise and fall skews. The two
    /// transitions are kept separate, as in Section III-B of the paper.
    pub fn skew(&self) -> f64 {
        LatencyExtremes::of(&self.sinks).skew()
    }

    /// Timing of a specific sink, if present. A binary search, relying on
    /// `sinks` being sorted by sink id as every evaluator produces it.
    pub fn sink(&self, sink_id: usize) -> Option<&SinkTiming> {
        self.sinks
            .binary_search_by_key(&sink_id, |s| s.sink_id)
            .ok()
            .map(|i| &self.sinks[i])
    }
}

/// Running extremes of the sink latencies at one corner: everything the
/// corner's skew, largest and smallest latency derive from, accumulated
/// sink by sink so a metrics-only evaluation needs no sink list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatencyExtremes {
    any: bool,
    rise_min: f64,
    rise_max: f64,
    fall_min: f64,
    fall_max: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyExtremes {
    fn default() -> Self {
        Self {
            any: false,
            rise_min: f64::INFINITY,
            rise_max: f64::NEG_INFINITY,
            fall_min: f64::INFINITY,
            fall_max: f64::NEG_INFINITY,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LatencyExtremes {
    pub(crate) fn of(sinks: &[SinkTiming]) -> Self {
        let mut extremes = Self::default();
        for sink in sinks {
            extremes.push(sink);
        }
        extremes
    }

    pub(crate) fn push(&mut self, sink: &SinkTiming) {
        let (rise, fall) = (sink.rise.latency, sink.fall.latency);
        self.any = true;
        self.rise_min = self.rise_min.min(rise);
        self.rise_max = self.rise_max.max(rise);
        self.fall_min = self.fall_min.min(fall);
        self.fall_max = self.fall_max.max(fall);
        self.min = self.min.min(sink.min_latency());
        self.max = self.max.max(sink.max_latency());
    }

    /// Largest latency over both transitions (−∞ without sinks).
    pub(crate) fn max_latency(&self) -> f64 {
        self.max
    }

    /// Smallest latency over both transitions (+∞ without sinks).
    pub(crate) fn min_latency(&self) -> f64 {
        self.min
    }

    fn rise_skew(&self) -> f64 {
        self.span(self.rise_min, self.rise_max)
    }

    fn fall_skew(&self) -> f64 {
        self.span(self.fall_min, self.fall_max)
    }

    /// The larger of the rise and fall skews (0 without sinks).
    pub(crate) fn skew(&self) -> f64 {
        self.rise_skew().max(self.fall_skew())
    }

    fn span(&self, min: f64, max: f64) -> f64 {
        if self.any {
            max - min
        } else {
            0.0
        }
    }
}

/// A complete multi-corner evaluation of a clock network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Nominal-corner (high-supply) results.
    pub nominal: CornerReport,
    /// Low-supply-corner results.
    pub low: CornerReport,
    /// Total network capacitance in fF.
    pub total_cap: f64,
    /// Slew limit in force during the evaluation, in ps.
    pub slew_limit: f64,
    /// Number of buffer stages in the evaluated netlist.
    pub buffer_count: usize,
}

impl EvalReport {
    /// Nominal skew (at the nominal corner), in ps.
    pub fn skew(&self) -> f64 {
        self.nominal.skew()
    }

    /// Clock Latency Range: largest sink latency at the low-supply corner
    /// minus smallest sink latency at the nominal (high-supply) corner, the
    /// ISPD'09 contest objective.
    pub fn clr(&self) -> f64 {
        self.low.max_latency() - self.nominal.min_latency()
    }

    /// Largest nominal-corner sink latency (insertion delay), in ps.
    pub fn max_latency(&self) -> f64 {
        self.nominal.max_latency()
    }

    /// Worst slew at either corner, in ps.
    pub fn worst_slew(&self) -> f64 {
        self.nominal.max_slew.max(self.low.max_slew)
    }

    /// Returns `true` when any slew at any corner exceeds the slew limit.
    pub fn has_slew_violation(&self) -> bool {
        self.worst_slew() > self.slew_limit + 1e-9
    }

    /// Number of sinks covered by the report.
    pub fn sink_count(&self) -> usize {
        self.nominal.sinks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(latency: f64, slew: f64) -> TransitionTiming {
        TransitionTiming { latency, slew }
    }

    fn corner(vdd: f64, latencies: &[(f64, f64)], max_slew: f64) -> CornerReport {
        CornerReport {
            vdd,
            sinks: latencies
                .iter()
                .enumerate()
                .map(|(i, &(r, f))| SinkTiming {
                    sink_id: i,
                    rise: timing(r, 40.0),
                    fall: timing(f, 42.0),
                })
                .collect(),
            max_slew,
        }
    }

    #[test]
    fn skew_is_max_of_rise_and_fall_skews() {
        let c = corner(1.2, &[(100.0, 101.0), (105.0, 109.0)], 50.0);
        assert!((c.rise_skew() - 5.0).abs() < 1e-12);
        assert!((c.fall_skew() - 8.0).abs() < 1e-12);
        assert!((c.skew() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn clr_spans_corners() {
        let nominal = corner(1.2, &[(100.0, 100.0), (104.0, 104.0)], 50.0);
        let low = corner(1.0, &[(118.0, 118.0), (123.0, 123.0)], 60.0);
        let report = EvalReport {
            nominal,
            low,
            total_cap: 1000.0,
            slew_limit: 100.0,
            buffer_count: 3,
        };
        assert!((report.clr() - 23.0).abs() < 1e-12);
        assert!((report.skew() - 4.0).abs() < 1e-12);
        assert!(!report.has_slew_violation());
        assert_eq!(report.sink_count(), 2);
    }

    #[test]
    fn slew_violation_detected_at_either_corner() {
        let nominal = corner(1.2, &[(100.0, 100.0)], 80.0);
        let low = corner(1.0, &[(110.0, 110.0)], 120.0);
        let report = EvalReport {
            nominal,
            low,
            total_cap: 10.0,
            slew_limit: 100.0,
            buffer_count: 0,
        };
        assert!(report.has_slew_violation());
        assert!((report.worst_slew() - 120.0).abs() < 1e-12);
    }

    #[test]
    fn empty_corner_has_zero_skew() {
        let c = CornerReport {
            vdd: 1.2,
            sinks: vec![],
            max_slew: 0.0,
        };
        assert_eq!(c.skew(), 0.0);
    }

    #[test]
    fn sink_lookup_by_id() {
        let c = corner(1.2, &[(100.0, 100.0), (105.0, 106.0)], 50.0);
        assert!(c.sink(1).is_some());
        assert!(c.sink(9).is_none());
        assert!((c.sink(1).expect("exists").max_latency() - 106.0).abs() < 1e-12);
    }

    #[test]
    fn sink_lookup_finds_every_id_and_rejects_absent_ones() {
        // Sparse, sorted ids as an evaluation of a partial netlist yields.
        let mut c = corner(1.2, &[(100.0, 101.0); 40], 50.0);
        for (i, s) in c.sinks.iter_mut().enumerate() {
            s.sink_id = 3 * i + 1;
            s.rise.latency = i as f64;
        }
        for i in 0..40 {
            let found = c.sink(3 * i + 1).expect("present id");
            assert_eq!(found.sink_id, 3 * i + 1);
            assert_eq!(found.rise.latency, i as f64);
        }
        for absent in [0, 2, 3, 59, 117, 119, usize::MAX] {
            assert!(c.sink(absent).is_none(), "id {absent} is not in the report");
        }
        assert!(corner(1.2, &[], 0.0).sink(0).is_none());
    }
}
