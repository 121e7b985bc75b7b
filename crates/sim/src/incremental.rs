//! Incremental stage-level evaluation with content-addressed caching.
//!
//! Every round of Contango's optimization passes mutates a handful of tree
//! edges and re-evaluates. A full evaluation re-lowers every stage and
//! re-simulates each of them at both supply corners, even though all but the
//! mutated stages (and their downstream cone, whose input slews shift) are
//! unchanged. The [`IncrementalEvaluator`] makes each evaluation proportional
//! to the size of the change instead:
//!
//! * every stage is identified by a 128-bit **content signature**
//!   ([`StageSig`]) over everything that affects its lowered electrical form
//!   — driver electricals, wire lengths/widths, snaking, sink and
//!   downstream-input capacitance, and the in-stage tree shape;
//! * lowered stages ([`LoweredStage`]) are cached by signature, so only
//!   stages whose nodes changed are re-lowered by the caller;
//! * per-stage transition solves are cached by `(supply, direction, input
//!   slew)`. A stage is re-solved only when it is new **or** an upstream
//!   change altered the slew arriving at its driver — exactly the downstream
//!   cone of the mutation. Arrival-time shifts alone are propagated by
//!   addition, without re-solving. Each evaluation walks the stages once
//!   for both corners, and solves all of a stage's misses — up to its four
//!   transitions — in one lane-interleaved kernel call. Solve keys age out
//!   individually, `KEEP_SOLVE_GENERATIONS` evaluations after their last
//!   use.
//!
//! With evaluation incremental, tree *construction* dominates what is left
//! of flow runtime; the complementary construction engine lives in
//! `contango_core::construct` (see `docs/architecture.md` at the
//! repository root).
//!
//! Because cached solves are produced by `Evaluator::solve_stage`,
//! which runs the stage kernel of the full evaluation's walk, an
//! incremental report is bit-identical to a full re-evaluation of the same
//! tree — a property the workspace enforces with equivalence tests rather
//! than trusting the cache keys.
//!
//! "SPICE run" counting is preserved: one [`IncrementalEvaluator::
//! evaluate_slots`] call increments the shared run counter by one, cache
//! hits notwithstanding, so Table-V-style reporting is unchanged.

use crate::evaluator::{
    EdgeState, EvalOptions, Evaluator, NodeState, RelTiming, StageScratch, Supply, Transition,
};
use crate::netlist::StageDriver;
use crate::report::{CornerReport, EvalReport, SinkTiming, TransitionTiming};
use crate::store::{ByteReader, ByteWriter, CacheCounters, CacheStore, StoreKey};
use crate::{DelayModel, DriverSpec, RcTree, SourceSpec};
use contango_tech::Technology;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Cached entries untouched for this many evaluations are evicted; rollbacks
/// in the optimization passes reach at most a few evaluations back, so this
/// keeps rejected-round stages warm while bounding memory.
const KEEP_GENERATIONS: u64 = 32;

/// Cached transition solves unused for this many evaluations are evicted
/// from stages that stay cached. Electrically identical stages share one
/// signature, so a stage's solve list holds one key per transition and
/// distinct input slew across all of its instances — hundreds of keys on a
/// symmetric tree — and every key the last evaluations used must survive,
/// or the next evaluation re-solves it. Keys of slews that stop arriving
/// (the downstream cone of earlier mutations) age out after a few
/// evaluations, which bounds the lists; a longer window buys few further
/// hits for noticeably more memory.
const KEEP_SOLVE_GENERATIONS: u64 = 2;

/// 128-bit content signature of one lowered stage.
///
/// Two stages with the same signature lower to the same electrical stage and
/// therefore share cache entries (symmetric clock trees routinely contain
/// electrically identical stages, which the cache deduplicates for free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageSig {
    lo: u64,
    hi: u64,
}

/// Streaming hasher producing a [`StageSig`] from the content walk of a
/// stage. Two independent 64-bit streams (FNV-1a and a splitmix-style
/// multiplier) make accidental collisions across a flow's lifetime
/// negligible.
#[derive(Debug, Clone)]
pub struct SigBuilder {
    lo: u64,
    hi: u64,
}

impl SigBuilder {
    /// Starts a new signature.
    pub fn new() -> Self {
        Self {
            lo: 0xcbf2_9ce4_8422_2325,
            hi: 0x6c62_272e_07bb_0142,
        }
    }

    /// Mixes one 64-bit word into both streams.
    pub fn write_u64(&mut self, v: u64) {
        self.lo = (self.lo ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        self.lo ^= self.lo >> 32;
        self.hi = (self.hi ^ v.rotate_left(32)).wrapping_mul(0x2545_f491_4f6c_dd1d);
        self.hi ^= self.hi >> 29;
    }

    /// Mixes a float by bit pattern (`-0.0` and `0.0` hash differently,
    /// which errs on the side of re-lowering).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a small tag discriminating record kinds within the walk.
    pub fn write_tag(&mut self, tag: u8) {
        self.write_u64(u64::from(tag));
    }

    /// Mixes an index-sized integer.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mixes a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Finalizes the signature.
    pub fn finish(&self) -> StageSig {
        StageSig {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

impl StageSig {
    /// The raw `(lo, hi)` halves of the signature — the content address
    /// used as a persistent [`StoreKey`].
    pub fn parts(self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

impl Default for SigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// What a tap of an isolated stage feeds, in stage-local terms: global stage
/// indices shift when the tree's structure changes, so cached stages refer
/// to their downstream stages by tap ordinal instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalTapKind {
    /// A clock sink with the given sink id.
    Sink(usize),
    /// The `k`-th downstream stage fed by this stage (in lowering order);
    /// resolved to a global stage index through [`StageSlot::children`].
    Child(usize),
}

/// A tap of an isolated stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalTap {
    /// Node index within the stage's [`RcTree`].
    pub node: usize,
    /// What the tap feeds.
    pub kind: LocalTapKind,
}

/// One stage lowered in isolation: the cacheable unit of incremental
/// evaluation.
#[derive(Debug, Clone)]
pub struct LoweredStage {
    /// The stage's driver.
    pub driver: StageDriver,
    /// The RC tree driven by the driver (node 0 is the driver output).
    pub tree: RcTree,
    /// The taps of this stage, in lowering order.
    pub taps: Vec<LocalTap>,
}

/// One stage of an incremental evaluation request. Slot 0 is the root
/// (source-driven) stage; `children[k]` is the slot index of the stage a
/// `LocalTapKind::Child(k)` tap feeds.
#[derive(Debug, Clone)]
pub struct StageSlot {
    /// Content signature of the stage.
    pub sig: StageSig,
    /// Slot indices of the downstream stages, by tap ordinal.
    pub children: Vec<usize>,
    /// The freshly lowered stage; `None` when
    /// [`IncrementalEvaluator::is_cached`] reported the signature as already
    /// cached, in which case the cached lowering is reused.
    pub fresh: Option<LoweredStage>,
}

/// Key of one cached per-stage transition solve: the input slew's bits and
/// the transition's lane `2c + d`, for supply corner `c` (0 nominal, 1 low)
/// and output direction `d` (0 rising, 1 falling) — the transition order
/// of `Evaluator::walk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SolveKey {
    input_slew: u64,
    lane: u8,
}

impl SolveKey {
    fn new(lane: usize, input_slew: f64) -> Self {
        Self {
            input_slew: input_slew.to_bits(),
            lane: lane as u8,
        }
    }

    fn corner(self) -> usize {
        usize::from(self.lane / 2)
    }

    fn rising(self) -> bool {
        self.lane.is_multiple_of(2)
    }
}

/// A cached stage: its lowering plus every transition solve seen so far.
#[derive(Debug, Clone)]
struct CachedStage {
    stage: LoweredStage,
    total_cap: f64,
    solves: StageSolves,
    last_used: u64,
}

impl CachedStage {
    /// A stage entering the cache with no solves yet. Its lowering is
    /// trimmed to size first: cached stages outlive the evaluation that
    /// lowered them by up to [`KEEP_GENERATIONS`] evaluations.
    fn new(mut stage: LoweredStage, last_used: u64) -> Self {
        stage.tree.shrink_to_fit();
        stage.taps.shrink_to_fit();
        Self {
            total_cap: stage.tree.total_cap(),
            stage,
            solves: StageSolves::default(),
            last_used,
        }
    }
}

/// Every cached transition solve of one stage, stored flat: the keys in
/// insertion order, the generation that last used each, and, back to back,
/// each key's per-tap timings. That is three allocations per stage instead
/// of a hash table plus one vector per solve; a lookup is a linear scan.
#[derive(Debug, Clone, Default)]
struct StageSolves {
    keys: Vec<SolveKey>,
    last_used: Vec<u64>,
    timings: Vec<RelTiming>,
}

impl StageSolves {
    /// The index of `key`, marked as used by generation `gen`.
    fn find(&mut self, key: &SolveKey, gen: u64) -> Option<usize> {
        let index = self.keys.iter().position(|k| k == key)?;
        self.last_used[index] = gen;
        Some(index)
    }

    /// The per-tap timings of the `index`-th key of a stage with `taps`
    /// taps.
    fn get(&self, index: usize, taps: usize) -> &[RelTiming] {
        &self.timings[index * taps..(index + 1) * taps]
    }

    /// Appends a solve used by generation `gen` and returns its index.
    fn push(&mut self, key: SolveKey, gen: u64, timings: &[RelTiming]) -> usize {
        grow_by_half(&mut self.keys, 1);
        grow_by_half(&mut self.last_used, 1);
        grow_by_half(&mut self.timings, timings.len());
        self.keys.push(key);
        self.last_used.push(gen);
        self.timings.extend_from_slice(timings);
        self.keys.len() - 1
    }

    /// Drops the keys (of a stage with `taps` taps) that no evaluation used
    /// within [`KEEP_SOLVE_GENERATIONS`] of generation `gen`, keeping the
    /// rest in order; returns how many it dropped.
    fn age(&mut self, gen: u64, taps: usize) -> u64 {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if self.last_used[i] + KEEP_SOLVE_GENERATIONS < gen {
                continue;
            }
            if kept != i {
                self.keys[kept] = self.keys[i];
                self.last_used[kept] = self.last_used[i];
                self.timings
                    .copy_within(i * taps..(i + 1) * taps, kept * taps);
            }
            kept += 1;
        }
        let dropped = self.keys.len() - kept;
        self.keys.truncate(kept);
        self.last_used.truncate(kept);
        self.timings.truncate(kept * taps);
        dropped as u64
    }
}

/// Makes room for `additional` more elements, growing by at least half the
/// current length: a tighter fit than `Vec`'s doubling for the many small,
/// long-lived solve lists.
fn grow_by_half<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 2));
    }
}

/// Cache statistics of an [`IncrementalEvaluator`], for tests, logging and
/// benchmark reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Stage lookups answered from the cache (no re-lowering needed).
    pub stage_hits: u64,
    /// Stage lookups that required a fresh lowering.
    pub stage_misses: u64,
    /// Stage lowerings loaded from an attached persistent store; each load
    /// turns what would have been a re-lowering into a memory hit.
    pub stage_disk_hits: u64,
    /// Transition solves answered from the cache.
    pub solve_hits: u64,
    /// Transition solves that ran the stage solver.
    pub solve_misses: u64,
    /// Of the `solve_hits`, those answered from an attached persistent
    /// store rather than the in-memory solve maps.
    pub solve_disk_hits: u64,
    /// In-memory entries discarded by aging: stages unused for more than
    /// `KEEP_GENERATIONS` evaluations (their solves go with them, uncounted),
    /// plus solve keys of the remaining stages unused for more than
    /// `KEEP_SOLVE_GENERATIONS` evaluations.
    pub evictions: u64,
}

/// An attached persistent store plus the evaluation-context fingerprint
/// mixed into its solve keys. Stage signatures cover everything that
/// affects a stage's lowered form (including the wire codes and buffer
/// electricals actually used), so stage payloads are keyed by signature
/// alone; solve results additionally depend on the delay model and the
/// technology's derating context, which the fingerprint captures.
#[derive(Debug, Clone)]
struct StoreBinding {
    store: Arc<CacheStore>,
    fingerprint: StageSig,
}

/// Deterministic per-job cache accounting: simulates the lookups a *cold,
/// dedicated* evaluator would make for this job against the store's
/// open-time snapshot. Unlike the observed [`CacheStats`] — which depend on
/// which jobs warmed this evaluator earlier — the profile is a pure
/// function of (job, snapshot), so the counters reported per job are
/// byte-identical for every worker count and session-pool size.
#[derive(Debug, Default)]
struct JobProfile {
    gen: u64,
    counters: CacheCounters,
    /// Stage signatures this job has looked up, by last-used generation
    /// (mirrors the in-memory cache's `last_used` aging).
    stage_seen: HashMap<StageSig, u64>,
    /// Solve keys this job has looked up, by last-used generation (mirrors
    /// the aging of the in-memory solve keys).
    solve_seen: HashMap<(StageSig, SolveKey), u64>,
}

impl JobProfile {
    fn classify_stage(&mut self, sig: StageSig, binding: Option<&StoreBinding>) {
        match self.stage_seen.entry(sig) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.counters.mem_hits += 1;
                *e.get_mut() = self.gen;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if binding.is_some_and(|b| b.store.contains_snapshot(stage_store_key(sig))) {
                    self.counters.disk_hits += 1;
                } else {
                    self.counters.misses += 1;
                }
                v.insert(self.gen);
            }
        }
    }

    fn classify_solve(
        &mut self,
        sig: StageSig,
        key: SolveKey,
        vdd: f64,
        binding: Option<&StoreBinding>,
    ) {
        match self.solve_seen.entry((sig, key)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.counters.mem_hits += 1;
                *e.get_mut() = self.gen;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let on_disk = binding.is_some_and(|b| {
                    b.store
                        .contains_snapshot(solve_store_key(sig, b.fingerprint, vdd, key))
                });
                if on_disk {
                    self.counters.disk_hits += 1;
                } else {
                    self.counters.misses += 1;
                }
                v.insert(self.gen);
            }
        }
    }

    /// Mirrors the end-of-evaluation generation aging of the in-memory
    /// cache: stages unused for `KEEP_GENERATIONS` evaluations are dropped
    /// together with their solves and counted as evictions, and so are the
    /// remaining stages' solve keys unused for `KEEP_SOLVE_GENERATIONS`.
    fn end_evaluation(&mut self) {
        let gen = self.gen;
        let mut removed: HashSet<StageSig> = HashSet::new();
        self.stage_seen.retain(|sig, last| {
            let keep = *last + KEEP_GENERATIONS >= gen;
            if !keep {
                removed.insert(*sig);
            }
            keep
        });
        self.counters.evictions += removed.len() as u64;
        let mut aged = 0u64;
        self.solve_seen.retain(|(sig, _), last| {
            if removed.contains(sig) {
                return false;
            }
            let keep = *last + KEEP_SOLVE_GENERATIONS >= gen;
            if !keep {
                aged += 1;
            }
            keep
        });
        self.counters.evictions += aged;
    }
}

/// A persistent, cache-backed clock-network evaluator.
///
/// Wraps a full [`Evaluator`] (sharing its "SPICE run" counter, so run
/// accounting is identical whichever path produced a report) and adds the
/// per-stage caches described in the module docs. Callers lower stages
/// through `contango_core::lower`, which asks [`Self::is_cached`] before
/// lowering so unchanged stages are never re-lowered.
///
/// With a [`CacheStore`] attached (see [`Self::attach_store`]), cache
/// misses additionally consult the store's on-disk entries, and fresh
/// lowerings and solves are appended to it — so results survive process
/// restarts and are shared across concurrent workers. Stored payloads are
/// bit-exact (`f64`s round-trip by bit pattern), so a warm run's reports
/// are byte-identical to a cold run's.
#[derive(Debug)]
pub struct IncrementalEvaluator {
    inner: Evaluator,
    /// Boxed, so the table's spare slots cost a pointer each rather than a
    /// whole entry.
    cache: RefCell<HashMap<StageSig, Box<CachedStage>>>,
    generation: Cell<u64>,
    stats: Cell<CacheStats>,
    store: RefCell<Option<StoreBinding>>,
    profile: RefCell<Option<JobProfile>>,
    scratch: RefCell<SolveScratch>,
}

/// Reusable scratch of the solves of [`IncrementalEvaluator::evaluate_slots`].
#[derive(Debug, Default)]
struct SolveScratch {
    stage: StageScratch,
    /// The solved transitions' tap timings, transition by transition.
    timings: Vec<RelTiming>,
}

impl IncrementalEvaluator {
    /// Creates an incremental evaluator with the default (transient) model.
    pub fn new(tech: Technology) -> Self {
        Self::from_evaluator(Evaluator::new(tech))
    }

    /// Creates an incremental evaluator with explicit options.
    pub fn with_options(tech: Technology, options: EvalOptions) -> Self {
        Self::from_evaluator(Evaluator::with_options(tech, options))
    }

    /// Creates an incremental evaluator using a specific delay model.
    pub fn with_model(tech: Technology, model: crate::DelayModel) -> Self {
        Self::from_evaluator(Evaluator::with_model(tech, model))
    }

    /// Wraps an existing full evaluator (its run counter is shared).
    pub fn from_evaluator(inner: Evaluator) -> Self {
        Self {
            inner,
            cache: RefCell::new(HashMap::new()),
            generation: Cell::new(0),
            stats: Cell::new(CacheStats::default()),
            store: RefCell::new(None),
            profile: RefCell::new(None),
            scratch: RefCell::new(SolveScratch::default()),
        }
    }

    /// Attaches a persistent store: from now on, stage and solve misses
    /// consult the store and fresh results are appended to it. Replaces any
    /// previously attached store.
    pub fn attach_store(&self, store: Arc<CacheStore>) {
        let fingerprint = context_fingerprint(&self.inner);
        *self.store.borrow_mut() = Some(StoreBinding { store, fingerprint });
    }

    /// Detaches the persistent store, if any.
    pub fn detach_store(&self) {
        *self.store.borrow_mut() = None;
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<Arc<CacheStore>> {
        self.store.borrow().as_ref().map(|b| b.store.clone())
    }

    /// Starts deterministic cache accounting for one job. The subsequent
    /// [`Self::take_job_profile`] returns counters that simulate a cold,
    /// dedicated evaluator running the job against the attached store's
    /// open-time snapshot — independent of worker scheduling. A no-op
    /// (profiling stays off) when no store is attached.
    pub fn begin_job_profile(&self) {
        let enabled = self.store.borrow().is_some();
        *self.profile.borrow_mut() = enabled.then(JobProfile::default);
    }

    /// Finishes the current job profile and returns its counters (zeros
    /// when no profile was running).
    pub fn take_job_profile(&self) -> CacheCounters {
        self.profile
            .borrow_mut()
            .take()
            .map(|p| p.counters)
            .unwrap_or_default()
    }

    /// The wrapped full evaluator — the escape hatch for callers that need a
    /// plain netlist evaluation (construction-time code, verification).
    /// Runs through it count against the same "SPICE run" counter.
    pub fn evaluator(&self) -> &Evaluator {
        &self.inner
    }

    /// Draws seeded Monte-Carlo variation samples of `netlist` through this
    /// evaluator's technology and delay model (see
    /// [`crate::variation::monte_carlo_samples`]). The samples stream
    /// through the full evaluator's scaled stage walk in one reused
    /// scratch; every sample scales every stage and shifts the supply, so
    /// none can use this evaluator's stage or solve caches. They do not
    /// touch the shared "SPICE run" counter — Table-V-style run counts stay
    /// comparable between variation-aware and nominal-only campaigns.
    pub fn variation_samples(
        &self,
        netlist: &crate::Netlist,
        model: &crate::variation::VariationModel,
        samples: usize,
        seed: u64,
    ) -> Vec<crate::variation::SampleMetrics> {
        crate::variation::monte_carlo_samples(&self.inner, netlist, model, samples, seed)
    }

    /// The technology in use.
    pub fn technology(&self) -> &Technology {
        self.inner.technology()
    }

    /// The delay model in use.
    pub fn model(&self) -> crate::DelayModel {
        self.inner.model()
    }

    /// Number of evaluations performed so far (the "SPICE run" count),
    /// incremental and full alike.
    pub fn runs(&self) -> usize {
        self.inner.runs()
    }

    /// Resets the run counter.
    pub fn reset_runs(&self) {
        self.inner.reset_runs();
    }

    /// Returns `true` when a stage with this signature is already cached (in
    /// which case [`StageSlot::fresh`] may be `None`).
    ///
    /// With a store attached, a memory miss additionally probes the store
    /// and, on success, installs the decoded lowering in the in-memory
    /// cache — this is how persisted stages avoid re-lowering entirely. A
    /// payload that fails to decode behaves as a plain miss (the caller
    /// re-lowers and the entry is rewritten).
    pub fn is_cached(&self, sig: StageSig) -> bool {
        if self.cache.borrow().contains_key(&sig) {
            return true;
        }
        let binding = self.store.borrow();
        let Some(binding) = binding.as_ref() else {
            return false;
        };
        let Some((payload, _tier)) = binding.store.get(stage_store_key(sig)) else {
            return false;
        };
        let Some(stage) = decode_stage(&payload) else {
            return false;
        };
        let mut stats = self.stats.get();
        stats.stage_disk_hits += 1;
        self.stats.set(stats);
        // Not yet used by an evaluation; pin it to the upcoming generation
        // so it cannot age out before the evaluation that asked for it
        // runs.
        let entry = Box::new(CachedStage::new(stage, self.generation.get() + 1));
        self.cache.borrow_mut().insert(sig, entry);
        true
    }

    /// Number of distinct stages currently cached.
    pub fn cached_stages(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Cache statistics accumulated since construction (or the last
    /// [`Self::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats.get()
    }

    /// Resets the cache statistics.
    pub fn reset_stats(&self) {
        self.stats.set(CacheStats::default());
    }

    /// Drops every cached stage and solve.
    pub fn clear_cache(&self) {
        self.cache.borrow_mut().clear();
    }

    /// Evaluates a clock network presented as stage slots (slot 0 = the
    /// source-driven root stage) at both supply corners.
    ///
    /// Counts as exactly one "SPICE run" regardless of how much of the work
    /// was answered from the caches.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty, or a slot has `fresh == None` for a
    /// signature the cache does not hold (a caller contract violation), or a
    /// child index is out of range.
    pub fn evaluate_slots(&self, slots: Vec<StageSlot>) -> EvalReport {
        assert!(!slots.is_empty(), "cannot evaluate an empty stage list");
        self.inner.count_run();
        let gen = self.generation.get() + 1;
        self.generation.set(gen);
        let mut stats = self.stats.get();
        let binding_ref = self.store.borrow();
        let binding = binding_ref.as_ref();
        let mut profile_ref = self.profile.borrow_mut();
        let profile = &mut *profile_ref;
        if let Some(p) = profile.as_mut() {
            p.gen += 1;
        }

        let mut cache = self.cache.borrow_mut();
        let mut meta: Vec<(StageSig, Vec<usize>)> = Vec::with_capacity(slots.len());
        // Per-slot stage capacitance, captured while the cache entry is in
        // hand. Summed in slot order — the same order `Netlist::total_cap`
        // sums per-stage subtotals — so the total is bit-identical to the
        // full path.
        let mut total_cap = 0.0_f64;
        for slot in slots {
            if let Some(p) = profile.as_mut() {
                p.classify_stage(slot.sig, binding);
            }
            match cache.entry(slot.sig) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let entry = e.get_mut();
                    entry.last_used = gen;
                    total_cap += entry.total_cap;
                    stats.stage_hits += 1;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    let stage = slot
                        .fresh
                        .expect("stages missing from the cache must be lowered by the caller");
                    if let Some(b) = binding {
                        // Cache write failures degrade to a smaller cache,
                        // never to a failed evaluation.
                        let _ = b
                            .store
                            .put(stage_store_key(slot.sig), &encode_stage(&stage));
                    }
                    total_cap += v.insert(Box::new(CachedStage::new(stage, gen))).total_cap;
                    stats.stage_misses += 1;
                }
            }
            meta.push((slot.sig, slot.children));
        }

        let tech = self.inner.technology();
        let slew_limit = tech.slew_limit;
        let [nominal, low] = self.walk_slots(
            &mut cache,
            &mut stats,
            binding,
            profile,
            &meta,
            Supply::of(tech),
            gen,
        );
        let buffer_count = meta.len().saturating_sub(1);

        cache.retain(|_, e| {
            if e.last_used + KEEP_GENERATIONS < gen {
                stats.evictions += 1;
                return false;
            }
            stats.evictions += e.solves.age(gen, e.stage.taps.len());
            true
        });
        if let Some(p) = profile.as_mut() {
            p.end_evaluation();
        }
        self.stats.set(stats);

        EvalReport {
            nominal,
            low,
            total_cap,
            slew_limit,
            buffer_count,
        }
    }

    /// Propagates both transitions at both supply corners through the
    /// cached stages in one walk, mirroring `Evaluator::walk` step for
    /// step, and returns the nominal and low corner reports.
    #[allow(clippy::too_many_arguments)]
    fn walk_slots(
        &self,
        cache: &mut HashMap<StageSig, Box<CachedStage>>,
        stats: &mut CacheStats,
        binding: Option<&StoreBinding>,
        profile: &mut Option<JobProfile>,
        meta: &[(StageSig, Vec<usize>)],
        supply: Supply,
        gen: u64,
    ) -> [CornerReport; 2] {
        let n = meta.len();
        let source = EdgeState {
            arrival: 0.0,
            slew: match cache[&meta[0].0].stage.driver {
                StageDriver::Source(s) => s.slew,
                // `Netlist::validate` rejects buffer-driven roots on the full
                // path; fail just as loudly here.
                StageDriver::Buffer(_) => panic!("root stage must be driven by the clock source"),
            },
        };
        // Every slot's input edges at both corners, written by the parent
        // before the slot is pushed.
        let mut inputs = vec![[NodeState::default(); 2]; n];
        inputs[0] = [NodeState {
            rise: source,
            fall: source,
        }; 2];
        let vdd = [supply.nominal, supply.low];
        let mut derate: [Option<f64>; 2] = [None; 2];
        let mut scratch = self.scratch.borrow_mut();
        let mut sinks: [Vec<SinkTiming>; 2] = [Vec::new(), Vec::new()];
        let mut max_slew = [0.0_f64; 2];
        // Per-slot drive tracking, mirroring `Netlist::validate`'s `driven`
        // array: a doubly-driven slot fails at the offending tap, and the
        // final count catches undriven slots.
        let mut driven = vec![false; n];
        driven[0] = true;
        let mut visited = 0usize;
        let mut stack = vec![0usize];
        while let Some(si) = stack.pop() {
            visited += 1;
            let (sig, children) = &meta[si];
            let entry = cache.get_mut(sig).expect("every slot was installed above");
            let inverting = entry.stage.driver.inverting();
            // Transition 2c is corner c's rising output, 2c + 1 its falling
            // one (the lanes of `SolveKey`).
            let mut edges = [EdgeState::default(); 4];
            for (c, input) in inputs[si].iter().enumerate() {
                let (in_for_rise, in_for_fall) = if inverting {
                    (input.fall, input.rise)
                } else {
                    (input.rise, input.fall)
                };
                edges[2 * c] = in_for_rise;
                edges[2 * c + 1] = in_for_fall;
            }
            let solved = self.stage_solves(
                &mut scratch,
                stats,
                binding,
                profile,
                *sig,
                entry,
                gen,
                &edges,
                vdd,
                &mut derate,
            );

            // Children are pushed in tap order and popped LIFO — the same
            // traversal `Netlist::topological_order` produces.
            let n_taps = entry.stage.taps.len();
            for (tap_idx, tap) in entry.stage.taps.iter().enumerate() {
                let mut state = [NodeState::default(); 2];
                for (c, state) in state.iter_mut().enumerate() {
                    let [r, f] = [2 * c, 2 * c + 1].map(|lane| {
                        let t = entry.solves.get(solved[lane], n_taps)[tap_idx];
                        EdgeState {
                            arrival: edges[lane].arrival + t.delay,
                            slew: t.slew,
                        }
                    });
                    max_slew[c] = max_slew[c].max(r.slew).max(f.slew);
                    *state = NodeState { rise: r, fall: f };
                }
                match tap.kind {
                    LocalTapKind::Sink(id) => {
                        for (sinks, s) in sinks.iter_mut().zip(state) {
                            sinks.push(SinkTiming {
                                sink_id: id,
                                rise: TransitionTiming {
                                    latency: s.rise.arrival,
                                    slew: s.rise.slew,
                                },
                                fall: TransitionTiming {
                                    latency: s.fall.arrival,
                                    slew: s.fall.slew,
                                },
                            });
                        }
                    }
                    LocalTapKind::Child(k) => {
                        let child = children[k];
                        assert!(
                            !driven[child],
                            "stage slot {child} is driven more than once"
                        );
                        driven[child] = true;
                        stack.push(child);
                        inputs[child] = state;
                    }
                }
            }
        }

        // The structural checks `Netlist::new` performs on the full path,
        // preserved here so malformed slot graphs fail loudly instead of
        // producing silently wrong reports: every stage driven exactly once
        // (checked per tap above) and no sink or stage left undriven.
        assert_eq!(
            visited, n,
            "stage slots do not form a tree: only {visited} of {n} stages are driven"
        );
        for sinks in &mut sinks {
            sinks.sort_by_key(|s| s.sink_id);
        }
        for pair in sinks[0].windows(2) {
            assert_ne!(
                pair[0].sink_id, pair[1].sink_id,
                "sink {} is driven more than once",
                pair[0].sink_id
            );
        }
        let [nominal, low] = sinks;
        let report = |c: usize, sinks| CornerReport {
            vdd: vdd[c],
            sinks,
            max_slew: max_slew[c],
        };
        [report(0, nominal), report(1, low)]
    }

    /// The indices in `entry`'s solve list of the stage's four transitions,
    /// whose causing input edges are `edges` (in `SolveKey` lane order).
    /// Each comes from the in-memory list, else from the attached store,
    /// else it is solved: all of the stage's solves in one call.
    #[allow(clippy::too_many_arguments)]
    fn stage_solves(
        &self,
        scratch: &mut SolveScratch,
        stats: &mut CacheStats,
        binding: Option<&StoreBinding>,
        profile: &mut Option<JobProfile>,
        sig: StageSig,
        entry: &mut CachedStage,
        gen: u64,
        edges: &[EdgeState; 4],
        vdd: [f64; 2],
        derate: &mut [Option<f64>; 2],
    ) -> [usize; 4] {
        let CachedStage { stage, solves, .. } = entry;
        let n_taps = stage.taps.len();
        let mut index = [0usize; 4];
        let mut misses = [SolveKey::new(0, 0.0); 4];
        let mut n_misses = 0;
        for (lane, edge) in edges.iter().enumerate() {
            let key = SolveKey::new(lane, edge.slew);
            let key_vdd = vdd[key.corner()];
            if let Some(p) = profile.as_mut() {
                p.classify_solve(sig, key, key_vdd, binding);
            }
            if let Some(i) = solves.find(&key, gen) {
                stats.solve_hits += 1;
                index[lane] = i;
                continue;
            }
            let stored = binding.and_then(|b| {
                let (payload, _tier) =
                    b.store
                        .get(solve_store_key(sig, b.fingerprint, key_vdd, key))?;
                decode_solves(&payload, n_taps)
            });
            if let Some(rel) = stored {
                stats.solve_hits += 1;
                stats.solve_disk_hits += 1;
                index[lane] = solves.push(key, gen, &rel);
            } else {
                misses[n_misses] = key;
                n_misses += 1;
            }
        }
        if n_misses == 0 {
            return index;
        }

        let misses = &misses[..n_misses];
        let is_source = stage.driver.is_source();
        let tech = self.inner.technology();
        let mut transitions = [Transition::default(); 4];
        for (t, key) in transitions.iter_mut().zip(misses) {
            let c = key.corner();
            *t = Transition {
                vdd: vdd[c],
                derate: if is_source {
                    1.0
                } else {
                    *derate[c].get_or_insert_with(|| tech.derate(vdd[c]))
                },
                rising: key.rising(),
                input_slew: f64::from_bits(key.input_slew),
            };
        }
        let SolveScratch {
            stage: loaded,
            timings,
        } = scratch;
        self.inner.solve_stage(
            &stage.tree,
            loaded,
            stage.taps.iter().map(|t| t.node),
            &stage.driver.spec(),
            is_source,
            &transitions[..n_misses],
            timings,
        );
        for (j, key) in misses.iter().enumerate() {
            let rel = &timings[j * n_taps..(j + 1) * n_taps];
            stats.solve_misses += 1;
            if let Some(b) = binding {
                // Cache write failures degrade to a smaller cache, never to
                // a failed evaluation.
                let store_key = solve_store_key(sig, b.fingerprint, vdd[key.corner()], *key);
                let _ = b.store.put(store_key, &encode_solves(rel));
            }
            index[usize::from(key.lane)] = solves.push(*key, gen, rel);
        }
        index
    }
}

// ---------------------------------------------------------------------------
// Persistent-store keys and payload codecs
// ---------------------------------------------------------------------------

/// The store key of a lowered stage: its content signature, verbatim.
fn stage_store_key(sig: StageSig) -> StoreKey {
    let (lo, hi) = sig.parts();
    StoreKey::new(crate::store::NS_STAGE, lo, hi)
}

/// The store key of one transition solve: stage signature, evaluation
/// fingerprint, and the supply `vdd` of the key's corner, direction and
/// input slew, mixed through the signature hasher.
fn solve_store_key(sig: StageSig, fingerprint: StageSig, vdd: f64, key: SolveKey) -> StoreKey {
    let mut b = SigBuilder::new();
    let (slo, shi) = sig.parts();
    b.write_u64(slo);
    b.write_u64(shi);
    let (flo, fhi) = fingerprint.parts();
    b.write_u64(flo);
    b.write_u64(fhi);
    b.write_f64(vdd);
    b.write_bool(key.rising());
    b.write_u64(key.input_slew);
    let (lo, hi) = b.finish().parts();
    StoreKey::new(crate::store::NS_SOLVE, lo, hi)
}

/// Fingerprint of everything a transition solve depends on *besides* the
/// stage content and the solve key: the delay model and the technology's
/// voltage-derating context. Mixed into every solve store key so stores
/// shared across models or technologies never serve each other's solves.
fn context_fingerprint(evaluator: &Evaluator) -> StageSig {
    let tech = evaluator.technology();
    let mut b = SigBuilder::new();
    b.write_tag(match evaluator.model() {
        DelayModel::Elmore => 0,
        DelayModel::TwoPole => 1,
        DelayModel::Transient => 2,
    });
    b.write_f64(tech.threshold_voltage);
    b.write_f64(tech.alpha);
    b.write_f64(tech.nominal_corner.vdd);
    b.write_f64(tech.slew_limit);
    b.finish()
}

/// Encodes a [`LoweredStage`] for the store (little-endian, floats by bit
/// pattern; see [`ByteWriter`]).
fn encode_stage(stage: &LoweredStage) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match stage.driver {
        StageDriver::Source(s) => {
            w.put_u8(0);
            w.put_f64(s.output_res);
            w.put_f64(s.slew);
        }
        StageDriver::Buffer(d) => {
            w.put_u8(1);
            w.put_f64(d.output_res);
            w.put_f64(d.output_cap);
            w.put_f64(d.input_cap);
            w.put_f64(d.intrinsic_delay);
            w.put_bool(d.inverting);
        }
    }
    w.put_usize(stage.tree.len());
    for (parent, res, cap) in stage.tree.iter() {
        w.put_usize(parent);
        w.put_f64(res);
        w.put_f64(cap);
    }
    w.put_usize(stage.taps.len());
    for tap in &stage.taps {
        w.put_usize(tap.node);
        match tap.kind {
            LocalTapKind::Sink(id) => {
                w.put_u8(0);
                w.put_usize(id);
            }
            LocalTapKind::Child(k) => {
                w.put_u8(1);
                w.put_usize(k);
            }
        }
    }
    w.finish()
}

/// Decodes a stage payload; `None` (a cold miss, never a panic) on any
/// structural inconsistency.
fn decode_stage(payload: &[u8]) -> Option<LoweredStage> {
    let mut r = ByteReader::new(payload);
    let driver = match r.take_u8()? {
        0 => StageDriver::Source(SourceSpec {
            output_res: r.take_f64()?,
            slew: r.take_f64()?,
        }),
        1 => StageDriver::Buffer(DriverSpec {
            output_res: r.take_f64()?,
            output_cap: r.take_f64()?,
            input_cap: r.take_f64()?,
            intrinsic_delay: r.take_f64()?,
            inverting: r.take_bool()?,
        }),
        _ => return None,
    };
    let node_count = r.take_usize()?;
    let mut tree = RcTree::new();
    for i in 0..node_count {
        let parent = r.take_usize()?;
        let res = r.take_f64()?;
        let cap = r.take_f64()?;
        if i == 0 {
            if parent != usize::MAX {
                return None;
            }
            tree.add_root(cap);
        } else {
            if parent >= i {
                return None;
            }
            tree.add_node(parent, res, cap);
        }
    }
    let tap_count = r.take_usize()?;
    let mut taps = Vec::new();
    for _ in 0..tap_count {
        let node = r.take_usize()?;
        if node >= node_count {
            return None;
        }
        let kind = match r.take_u8()? {
            0 => LocalTapKind::Sink(r.take_usize()?),
            1 => LocalTapKind::Child(r.take_usize()?),
            _ => return None,
        };
        taps.push(LocalTap { node, kind });
    }
    r.is_done().then_some(LoweredStage { driver, tree, taps })
}

/// Encodes one transition solve (the per-tap relative timings).
fn encode_solves(rel: &[RelTiming]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(rel.len());
    for t in rel {
        w.put_f64(t.delay);
        w.put_f64(t.slew);
    }
    w.finish()
}

/// Decodes a transition-solve payload; the tap count must match the cached
/// stage's, or the payload is rejected as a cold miss.
fn decode_solves(payload: &[u8], expected_taps: usize) -> Option<Vec<RelTiming>> {
    let mut r = ByteReader::new(payload);
    if r.take_usize()? != expected_taps {
        return None;
    }
    let mut rel = Vec::with_capacity(expected_taps.min(1024));
    for _ in 0..expected_taps {
        rel.push(RelTiming {
            delay: r.take_f64()?,
            slew: r.take_f64()?,
        });
    }
    r.is_done().then_some(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverSpec, SourceSpec};
    use crate::netlist::{Netlist, Stage, Tap, TapKind};

    /// Source → trunk wire → inverter → two asymmetric sink branches, as a
    /// netlist (for the full evaluator) and as slots (for the incremental
    /// one).
    fn two_sink_network() -> (Netlist, Vec<StageSlot>) {
        let tech = Technology::ispd09();
        let buf = tech.composite(tech.small_inverter(), 8);
        let d = DriverSpec::from_composite(&buf);

        let mut t0 = RcTree::new();
        let r0 = t0.add_root(1.0);
        let trunk = t0.add_node(r0, 120.0, 60.0 + d.input_cap);
        let mut t1 = RcTree::new();
        let r1 = t1.add_root(d.output_cap);
        let a = t1.add_node(r1, 60.0, 35.0);
        let b = t1.add_node(r1, 260.0, 75.0);

        let stage0 = Stage {
            driver: StageDriver::Source(SourceSpec::ispd09()),
            tree: t0.clone(),
            taps: vec![Tap {
                node: trunk,
                kind: TapKind::Stage(1),
            }],
        };
        let stage1 = Stage {
            driver: StageDriver::Buffer(d),
            tree: t1.clone(),
            taps: vec![
                Tap {
                    node: a,
                    kind: TapKind::Sink(0),
                },
                Tap {
                    node: b,
                    kind: TapKind::Sink(1),
                },
            ],
        };
        let netlist = Netlist::new(vec![stage0, stage1], 0).expect("valid netlist");

        let mut s0 = SigBuilder::new();
        s0.write_tag(0);
        let mut s1 = SigBuilder::new();
        s1.write_tag(1);
        let slots = vec![
            StageSlot {
                sig: s0.finish(),
                children: vec![1],
                fresh: Some(LoweredStage {
                    driver: StageDriver::Source(SourceSpec::ispd09()),
                    tree: t0,
                    taps: vec![LocalTap {
                        node: trunk,
                        kind: LocalTapKind::Child(0),
                    }],
                }),
            },
            StageSlot {
                sig: s1.finish(),
                children: vec![],
                fresh: Some(LoweredStage {
                    driver: StageDriver::Buffer(d),
                    tree: t1,
                    taps: vec![
                        LocalTap {
                            node: a,
                            kind: LocalTapKind::Sink(0),
                        },
                        LocalTap {
                            node: b,
                            kind: LocalTapKind::Sink(1),
                        },
                    ],
                }),
            },
        ];
        (netlist, slots)
    }

    #[test]
    fn incremental_report_is_bit_identical_to_full() {
        let (netlist, slots) = two_sink_network();
        let tech = Technology::ispd09();
        let full = Evaluator::new(tech.clone()).evaluate(&netlist);
        let inc = IncrementalEvaluator::new(tech);
        let report = inc.evaluate_slots(slots.clone());
        assert_eq!(report, full);
        // Second evaluation: everything hits the caches, result unchanged.
        let report2 = inc.evaluate_slots(
            slots
                .iter()
                .map(|s| StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                })
                .collect(),
        );
        assert_eq!(report2, full);
        let stats = inc.stats();
        assert_eq!(stats.stage_misses, 2);
        assert_eq!(stats.stage_hits, 2);
        assert!(stats.solve_hits >= stats.solve_misses);
    }

    #[test]
    fn every_evaluation_counts_one_run() {
        let (netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        assert_eq!(inc.runs(), 0);
        let _ = inc.evaluate_slots(slots.clone());
        let _ = inc.evaluate_slots(
            slots
                .iter()
                .map(|s| StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                })
                .collect(),
        );
        // The escape hatch shares the same counter.
        let _ = inc.evaluator().evaluate(&netlist);
        assert_eq!(inc.runs(), 3);
        inc.reset_runs();
        assert_eq!(inc.runs(), 0);
    }

    #[test]
    fn stale_entries_are_evicted() {
        let (_netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots.clone());
        assert_eq!(inc.cached_stages(), 2);
        // Re-evaluate only the root slot's worth of content under a fresh
        // signature for many generations; the original entries age out.
        for i in 0..(KEEP_GENERATIONS + 2) {
            let mut slot = slots[1].clone();
            let mut sig = SigBuilder::new();
            sig.write_u64(1000 + i);
            slot.sig = sig.finish();
            slot.children = vec![];
            let mut root = slots[0].clone();
            let mut rsig = SigBuilder::new();
            rsig.write_u64(5000 + i);
            root.sig = rsig.finish();
            let _ = inc.evaluate_slots(vec![root, slot]);
        }
        assert!(!inc.is_cached(slots[0].sig));
        assert!(!inc.is_cached(slots[1].sig));
    }

    /// Round `round` of a slew churn over [`two_sink_network`]: the
    /// downstream stage keeps its content (and signature) while the root
    /// stage's trunk grows by one ohm per round, so a new input slew
    /// reaches the fixed stage every round. Returns the round's netlist and
    /// slots (the fixed slot lowered only when `inc` does not hold it).
    fn churn_round(
        inc: &IncrementalEvaluator,
        netlist: &Netlist,
        slots: &[StageSlot],
        round: usize,
    ) -> (Netlist, Vec<StageSlot>) {
        let extra_res = round as f64;
        let mut n = netlist.clone();
        let mut t0 = RcTree::new();
        let r0 = t0.add_root(1.0);
        let input_cap = n.stages[1].driver.spec().input_cap;
        let trunk = t0.add_node(r0, 120.0 + extra_res, 60.0 + input_cap);
        n.stages[0].tree = t0.clone();
        n.stages[0].taps[0].node = trunk;

        let mut sig = SigBuilder::new();
        sig.write_f64(extra_res);
        let root_slot = StageSlot {
            sig: sig.finish(),
            children: vec![1],
            fresh: Some(LoweredStage {
                driver: n.stages[0].driver,
                tree: t0,
                taps: vec![LocalTap {
                    node: trunk,
                    kind: LocalTapKind::Child(0),
                }],
            }),
        };
        let fixed_slot = StageSlot {
            sig: slots[1].sig,
            children: vec![],
            fresh: if inc.is_cached(slots[1].sig) {
                None
            } else {
                slots[1].fresh.clone()
            },
        };
        (n, vec![root_slot, fixed_slot])
    }

    #[test]
    fn bounded_solve_cache_stays_correct_under_slew_churn() {
        // The fixed stage sees four new solve keys per round; keys unused
        // for KEEP_SOLVE_GENERATIONS evaluations age out, which bounds its
        // solve list, and results stay bit-identical to full evaluation
        // throughout.
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(tech.clone());
        let full = Evaluator::new(tech);
        let bound = 4 * (KEEP_SOLVE_GENERATIONS as usize + 1);
        for round in 0..(bound + 8) {
            let (n, round_slots) = churn_round(&inc, &netlist, &slots, round);
            let fast = inc.evaluate_slots(round_slots);
            assert_eq!(fast, full.evaluate(&n), "round {round}");
            let keys = inc.cache.borrow()[&slots[1].sig].solves.keys.len();
            assert!(keys <= bound, "round {round}: {keys} keys");
        }
        let stats = inc.stats();
        assert_eq!(stats.solve_hits, 0, "every round brings new slews");
        assert!(stats.evictions > 0, "old keys must age out");
    }

    /// A source-driven root fanning out through `fanout` branches of
    /// growing resistance into `fanout` electrically identical buffer
    /// stages — one signature — each driving its own single-sink leaf
    /// stage; as a netlist and as slots.
    fn shared_signature_network(fanout: usize) -> (Netlist, Vec<StageSlot>) {
        let tech = Technology::ispd09();
        let d = DriverSpec::from_composite(&tech.composite(tech.small_inverter(), 8));
        let sig = |tag: u64, i: usize| {
            let mut b = SigBuilder::new();
            b.write_u64(tag);
            b.write_usize(i);
            b.finish()
        };
        let mut root = RcTree::new();
        let r0 = root.add_root(1.0);
        let branches: Vec<usize> = (0..fanout)
            .map(|i| root.add_node(r0, 40.0 + 25.0 * i as f64, 20.0 + d.input_cap))
            .collect();
        let mut middle = RcTree::new();
        let m0 = middle.add_root(d.output_cap);
        let m_tap = middle.add_node(m0, 80.0, 30.0 + d.input_cap);
        let mut leaf = RcTree::new();
        let l0 = leaf.add_root(d.output_cap);
        let l_tap = leaf.add_node(l0, 60.0, 25.0);

        let source = StageDriver::Source(SourceSpec::ispd09());
        let buffer = StageDriver::Buffer(d);
        let mut stages = vec![Stage {
            driver: source,
            tree: root.clone(),
            taps: branches
                .iter()
                .enumerate()
                .map(|(i, &node)| Tap {
                    node,
                    kind: TapKind::Stage(1 + i),
                })
                .collect(),
        }];
        let mut slots = vec![StageSlot {
            sig: sig(0, 0),
            children: (1..=fanout).collect(),
            fresh: Some(LoweredStage {
                driver: source,
                tree: root,
                taps: branches
                    .iter()
                    .enumerate()
                    .map(|(i, &node)| LocalTap {
                        node,
                        kind: LocalTapKind::Child(i),
                    })
                    .collect(),
            }),
        }];
        for i in 0..fanout {
            stages.push(Stage {
                driver: buffer,
                tree: middle.clone(),
                taps: vec![Tap {
                    node: m_tap,
                    kind: TapKind::Stage(1 + fanout + i),
                }],
            });
            slots.push(StageSlot {
                sig: sig(1, 0),
                children: vec![1 + fanout + i],
                fresh: Some(LoweredStage {
                    driver: buffer,
                    tree: middle.clone(),
                    taps: vec![LocalTap {
                        node: m_tap,
                        kind: LocalTapKind::Child(0),
                    }],
                }),
            });
        }
        for i in 0..fanout {
            let sink = [Tap {
                node: l_tap,
                kind: TapKind::Sink(i),
            }];
            stages.push(Stage {
                driver: buffer,
                tree: leaf.clone(),
                taps: sink.to_vec(),
            });
            slots.push(StageSlot {
                sig: sig(2, i),
                children: vec![],
                fresh: Some(LoweredStage {
                    driver: buffer,
                    tree: leaf.clone(),
                    taps: vec![LocalTap {
                        node: l_tap,
                        kind: LocalTapKind::Sink(i),
                    }],
                }),
            });
        }
        let netlist = Netlist::new(stages, 0).expect("valid netlist");
        (netlist, slots)
    }

    #[test]
    fn shared_signature_stages_keep_every_solve_for_the_next_evaluation() {
        // 24 instances of one signature with distinct input slews need 96
        // solve keys per evaluation. Every one of them must still be cached
        // when the next evaluation asks for it.
        let tech = Technology::ispd09();
        let (netlist, slots) = shared_signature_network(24);
        let inc = IncrementalEvaluator::new(tech.clone());
        let first = inc.evaluate_slots(slots.clone());
        assert_eq!(first, Evaluator::new(tech).evaluate(&netlist));
        let shared = slots[1].sig;
        assert_eq!(inc.cache.borrow()[&shared].solves.keys.len(), 4 * 24);
        let misses = inc.stats().solve_misses;
        let second = inc.evaluate_slots(
            slots
                .iter()
                .map(|s| StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                })
                .collect(),
        );
        assert_eq!(inc.stats().solve_misses, misses, "no re-solves");
        assert_eq!(format!("{second:?}"), format!("{first:?}"));
    }

    #[test]
    #[should_panic(expected = "root stage must be driven by the clock source")]
    fn buffer_driven_root_is_rejected() {
        let (_netlist, mut slots) = two_sink_network();
        let buffer_driver = slots[1].fresh.as_ref().expect("fresh").driver;
        slots[0].fresh.as_mut().expect("fresh").driver = buffer_driver;
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    #[test]
    #[should_panic(expected = "stage slots do not form a tree")]
    fn undriven_stage_is_rejected() {
        let (_netlist, mut slots) = two_sink_network();
        // Sever the root's child link: slot 1 is never driven.
        slots[0].children.clear();
        slots[0].fresh.as_mut().expect("fresh").taps.clear();
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    #[test]
    #[should_panic(expected = "driven more than once")]
    fn doubly_driven_stage_is_rejected() {
        // Root drives slot 1 through two taps while no one drives anyone
        // else; a global visit count alone would not notice, the per-slot
        // drive tracking must.
        let (_netlist, mut slots) = two_sink_network();
        let root = slots[0].fresh.as_mut().expect("fresh");
        let tap = root.taps[0];
        root.taps.push(LocalTap {
            node: tap.node,
            kind: LocalTapKind::Child(1),
        });
        slots[0].children = vec![1, 1];
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    #[test]
    #[should_panic(expected = "driven more than once")]
    fn doubly_driven_sink_is_rejected() {
        let (_netlist, mut slots) = two_sink_network();
        let taps = &mut slots[1].fresh.as_mut().expect("fresh").taps;
        taps[1].kind = LocalTapKind::Sink(0);
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        let _ = inc.evaluate_slots(slots);
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("contango-incremental-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_store_reloads_stages_and_solves_bit_identically() {
        let dir = temp_store_dir("warm");
        let tech = Technology::ispd09();
        let (netlist, slots) = two_sink_network();
        let full = Evaluator::new(tech.clone()).evaluate(&netlist);

        // Cold run: populate the store.
        {
            let inc = IncrementalEvaluator::new(tech.clone());
            inc.attach_store(Arc::new(CacheStore::open(&dir).expect("open")));
            assert_eq!(inc.evaluate_slots(slots.clone()), full);
            let stats = inc.stats();
            assert_eq!(stats.stage_disk_hits, 0);
            assert_eq!(stats.solve_disk_hits, 0);
        }

        // Warm run in a "new process": the probe finds both stages on disk,
        // so no slot needs a fresh lowering, every solve comes from disk,
        // and the report is byte-identical.
        let inc = IncrementalEvaluator::new(tech);
        inc.attach_store(Arc::new(CacheStore::open(&dir).expect("reopen")));
        let warm_slots: Vec<StageSlot> = slots
            .iter()
            .map(|s| {
                assert!(inc.is_cached(s.sig), "stage should load from the store");
                StageSlot {
                    sig: s.sig,
                    children: s.children.clone(),
                    fresh: None,
                }
            })
            .collect();
        assert_eq!(inc.evaluate_slots(warm_slots), full);
        let stats = inc.stats();
        assert_eq!(stats.stage_disk_hits, 2);
        assert_eq!(stats.stage_misses, 0);
        assert_eq!(stats.solve_misses, 0);
        assert!(stats.solve_disk_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_profile_is_deterministic_and_snapshot_based() {
        let dir = temp_store_dir("profile");
        let tech = Technology::ispd09();
        let (_netlist, slots) = two_sink_network();

        let run = |store: Arc<CacheStore>| {
            let inc = IncrementalEvaluator::new(tech.clone());
            inc.attach_store(store);
            inc.begin_job_profile();
            let _ = inc.evaluate_slots(
                slots
                    .iter()
                    .map(|s| StageSlot {
                        sig: s.sig,
                        children: s.children.clone(),
                        fresh: if inc.is_cached(s.sig) {
                            None
                        } else {
                            s.fresh.clone()
                        },
                    })
                    .collect(),
            );
            inc.take_job_profile()
        };

        // Cold: an empty snapshot makes every lookup a miss.
        let cold = run(Arc::new(CacheStore::open(&dir).expect("open")));
        assert_eq!(cold.disk_hits, 0);
        assert!(cold.misses > 0);

        // Warm: the same job against the populated snapshot classifies the
        // same lookups as disk hits — and is reproducible run over run.
        let warm = run(Arc::new(CacheStore::open(&dir).expect("reopen")));
        let warm2 = run(Arc::new(CacheStore::open(&dir).expect("reopen")));
        assert_eq!(warm, warm2);
        assert_eq!(warm.lookups(), cold.lookups());
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.disk_hits, cold.misses);

        // Without begin_job_profile, take returns zeros.
        let inc = IncrementalEvaluator::new(tech.clone());
        assert_eq!(inc.take_job_profile(), CacheCounters::default());
        let _ = std::fs::remove_dir_all(&dir);

        // Against an empty snapshot, the profile of a fresh evaluator is
        // exactly its observed accounting — solve-key aging included.
        let dir = temp_store_dir("profile-aging");
        let (netlist, slots) = two_sink_network();
        let inc = IncrementalEvaluator::new(tech.clone());
        inc.attach_store(Arc::new(CacheStore::open(&dir).expect("open")));
        inc.begin_job_profile();
        for round in 0..12 {
            let (_n, round_slots) = churn_round(&inc, &netlist, &slots, round);
            let _ = inc.evaluate_slots(round_slots);
        }
        let stats = inc.stats();
        let profile = inc.take_job_profile();
        assert!(stats.evictions > 0, "the churn must age solve keys out");
        assert_eq!(profile.mem_hits, stats.stage_hits + stats.solve_hits);
        assert_eq!(profile.misses, stats.stage_misses + stats.solve_misses);
        assert_eq!(
            profile.disk_hits,
            stats.stage_disk_hits + stats.solve_disk_hits
        );
        assert_eq!(profile.evictions, stats.evictions);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stage_payloads_degrade_to_cold_misses() {
        let dir = temp_store_dir("corrupt");
        let store = CacheStore::open(&dir).expect("open");
        let (_netlist, slots) = two_sink_network();
        // A syntactically valid record whose payload is not a stage.
        store
            .put(stage_store_key(slots[0].sig), b"not a stage")
            .expect("put");
        drop(store);
        let inc = IncrementalEvaluator::new(Technology::ispd09());
        inc.attach_store(Arc::new(CacheStore::open(&dir).expect("reopen")));
        assert!(!inc.is_cached(slots[0].sig), "garbage must read as a miss");
        assert_eq!(inc.stats().stage_disk_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stage_and_solve_codecs_round_trip() {
        let (_netlist, slots) = two_sink_network();
        for slot in &slots {
            let stage = slot.fresh.as_ref().expect("fresh");
            let decoded = decode_stage(&encode_stage(stage)).expect("round trip");
            assert_eq!(decoded.driver, stage.driver);
            assert_eq!(decoded.tree, stage.tree);
            assert_eq!(decoded.taps, stage.taps);
        }
        let rel = vec![
            RelTiming {
                delay: 12.5,
                slew: 30.25,
            },
            RelTiming {
                delay: -0.0,
                slew: f64::MIN_POSITIVE,
            },
        ];
        assert_eq!(decode_solves(&encode_solves(&rel), 2), Some(rel.clone()));
        // Tap-count mismatches and truncations are rejected, not trusted.
        assert_eq!(decode_solves(&encode_solves(&rel), 3), None);
        let bytes = encode_solves(&rel);
        assert_eq!(decode_solves(&bytes[..bytes.len() - 1], 2), None);
    }

    #[test]
    fn stage_solves_keep_each_keys_timings_apart() {
        let key = |slew: f64| SolveKey::new(0, slew);
        let rel = |delay: f64| RelTiming { delay, slew: 1.0 };
        let mut solves = StageSolves::default();
        assert_eq!(solves.push(key(10.0), 1, &[rel(1.0), rel(2.0)]), 0);
        assert_eq!(solves.push(key(20.0), 1, &[rel(3.0), rel(4.0)]), 1);
        assert_eq!(solves.push(key(30.0), 2, &[rel(5.0), rel(6.0)]), 2);
        assert_eq!(solves.find(&key(20.0), 3), Some(1));
        assert_eq!(solves.find(&key(40.0), 3), None);
        assert_eq!(solves.get(0, 2), &[rel(1.0), rel(2.0)]);
        assert_eq!(solves.get(1, 2), &[rel(3.0), rel(4.0)]);
        // Past the window, key 10 (last used by generation 1) ages out;
        // key 20 (touched by 3) and key 30 (used by 2) stay, in order.
        assert_eq!(solves.age(KEEP_SOLVE_GENERATIONS + 2, 2), 1);
        assert_eq!(solves.keys, [key(20.0), key(30.0)]);
        assert_eq!(solves.get(0, 2), &[rel(3.0), rel(4.0)]);
        assert_eq!(solves.get(1, 2), &[rel(5.0), rel(6.0)]);
        assert_eq!(solves.push(key(10.0), 4, &[rel(7.0), rel(8.0)]), 2);
        assert_eq!(solves.get(2, 2), &[rel(7.0), rel(8.0)]);
    }

    #[test]
    fn solve_keys_pack_corner_and_direction() {
        let keys: Vec<SolveKey> = (0..4).map(|lane| SolveKey::new(lane, 5.0)).collect();
        let decoded: Vec<(usize, bool)> = keys.iter().map(|k| (k.corner(), k.rising())).collect();
        assert_eq!(decoded, [(0, true), (0, false), (1, true), (1, false)]);
        assert_eq!(std::mem::size_of::<SolveKey>(), 16);
    }

    #[test]
    fn sig_builder_is_order_sensitive() {
        let mut a = SigBuilder::new();
        a.write_f64(1.0);
        a.write_f64(2.0);
        let mut b = SigBuilder::new();
        b.write_f64(2.0);
        b.write_f64(1.0);
        assert_ne!(a.finish(), b.finish());
        let mut c = SigBuilder::new();
        c.write_f64(1.0);
        c.write_f64(2.0);
        assert_eq!(a.finish(), c.finish());
    }
}
