//! Pipeline planning: τₙ ∘ … ∘ τ₁ (+ optional input schema) → an
//! executable plan.
//!
//! Two execution strategies realize the same transduction:
//!
//! * **Composed** — fold [`xtt_transducer::compose`] over the stages,
//!   earliest-normalize + minimize the product (PR 4's normal form), and
//!   compile ONE [`CompiledDtop`]. Each input event is processed once;
//!   planning pays the product construction up front.
//! * **Chained** — compile each stage separately and cascade committed
//!   output events from stage *i* into stage *i+1*'s push evaluator
//!   ([`xtt_engine::ChainedEvaluator`]) without materializing intermediate
//!   trees. Planning is cheap; runtime pays one evaluator per stage.
//!
//! The planner measures both on a probe corpus sampled from the pipeline's
//! own domain and picks the faster (an explicit [`StrategyChoice`]
//! overrides). Either way the plan carries a single **guard**: the exact
//! *chain* domain `⋂ᵢ dom(Cᵢ)` over the composed prefixes `Cᵢ = τᵢ∘…∘τ₁`,
//! intersected with the schema when present. The final composed machine's
//! domain alone would over-accept — when a later stage deletes part of an
//! earlier stage's output the product never checks the earlier stage's
//! partiality there — so the prefix intersection is what makes both
//! strategies accept exactly the same language and reject at exactly the
//! same node.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use xtt_automata::{enumerate_language, is_empty, trim, Dtta};
use xtt_engine::{
    compile, fingerprint, ChainStage, ChainedEvaluator, CompileError, CompiledDtop, IterEvents,
    TreeCollector,
};
use xtt_transducer::{
    canonical_number, chain_domain_raw, compose, minimize, to_earliest, Dtop, DtopError, NormError,
};
use xtt_trees::Tree;
use xtt_typecheck::{guard_from_domain, CompiledDtta, TypecheckError};

use crate::specialize::{specialize_to_schema, specialize_to_symbols};

/// How a plan executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    Composed,
    Chained,
}

impl Strategy {
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Composed => "composed",
            Strategy::Chained => "chained",
        }
    }
}

/// The caller's say in strategy selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategyChoice {
    /// Let the cost model decide.
    #[default]
    Auto,
    Composed,
    Chained,
}

impl StrategyChoice {
    pub fn parse(s: &str) -> Option<StrategyChoice> {
        match s {
            "auto" => Some(StrategyChoice::Auto),
            "composed" => Some(StrategyChoice::Composed),
            "chained" => Some(StrategyChoice::Chained),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            StrategyChoice::Auto => "auto",
            StrategyChoice::Composed => "composed",
            StrategyChoice::Chained => "chained",
        }
    }
}

/// One resolved pipeline stage: a registered transducer and its name.
#[derive(Clone)]
pub struct StageDef {
    pub name: String,
    pub dtop: Arc<Dtop>,
}

/// Why planning failed. Serve maps `EmptyPipeline` / `EmptyComposition`
/// to 422 (the request names a pipeline that cannot transform anything).
#[derive(Debug)]
pub enum PlanError {
    EmptyPipeline,
    /// The composed transduction has an empty domain — no input is ever
    /// accepted (e.g. τ₁'s range misses τ₂'s domain entirely).
    EmptyComposition,
    Compose {
        stage: String,
        source: DtopError,
    },
    Specialize(DtopError),
    Norm(NormError),
    Compile(CompileError),
    Typecheck(TypecheckError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyPipeline => write!(f, "pipeline has no stages"),
            PlanError::EmptyComposition => {
                write!(f, "pipeline composition has an empty domain")
            }
            PlanError::Compose { stage, source } => {
                write!(f, "composing stage '{stage}': {source}")
            }
            PlanError::Specialize(e) => write!(f, "schema specialization: {e}"),
            PlanError::Norm(e) => write!(f, "normalizing composition: {e}"),
            PlanError::Compile(e) => write!(f, "compiling plan: {e}"),
            PlanError::Typecheck(e) => write!(f, "building pipeline guard: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// What the planner decided and why — rendered into `/pipelines/{name}`
/// responses and `BENCH_pipeline.json`.
#[derive(Clone, Debug)]
pub struct PlanReport {
    pub stages: Vec<String>,
    pub strategy: Strategy,
    /// `true` when the strategy was forced by an explicit choice rather
    /// than measured.
    pub forced: bool,
    pub schema: bool,
    pub composed_states: usize,
    pub composed_code_len: usize,
    pub chained_code_len: usize,
    /// Σ states×symbols of the per-stage jump tables before/after schema
    /// specialization (equal when no schema was given).
    pub jump_entries_unspecialized: usize,
    pub jump_entries_specialized: usize,
    /// Cost-probe measurements: total nanoseconds to run the probe corpus
    /// under each strategy (0 when the probe was skipped).
    pub probe_docs: usize,
    pub composed_probe_ns: u64,
    pub chained_probe_ns: u64,
    /// Fingerprint of the whole pipeline (stages + schema + choice) — the
    /// plan-cache key.
    pub fingerprint: u64,
}

impl PlanReport {
    /// Percentage of per-stage jump-table entries removed by schema
    /// specialization.
    pub fn jump_table_shrink_pct(&self) -> f64 {
        if self.jump_entries_unspecialized == 0 {
            return 0.0;
        }
        100.0 * (self.jump_entries_unspecialized - self.jump_entries_specialized) as f64
            / self.jump_entries_unspecialized as f64
    }

    pub fn json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        format!(
            concat!(
                "{{\"stages\":[{}],\"strategy\":\"{}\",\"forced\":{},",
                "\"schema\":{},\"composed_states\":{},\"composed_code_len\":{},",
                "\"chained_code_len\":{},\"jump_entries_unspecialized\":{},",
                "\"jump_entries_specialized\":{},\"jump_table_shrink_pct\":{:.2},",
                "\"probe_docs\":{},\"composed_probe_ns\":{},\"chained_probe_ns\":{},",
                "\"fingerprint\":\"{:016x}\"}}"
            ),
            stages.join(","),
            self.strategy.as_str(),
            self.forced,
            self.schema,
            self.composed_states,
            self.composed_code_len,
            self.chained_code_len,
            self.jump_entries_unspecialized,
            self.jump_entries_specialized,
            self.jump_table_shrink_pct(),
            self.probe_docs,
            self.composed_probe_ns,
            self.chained_probe_ns,
            self.fingerprint,
        )
    }
}

/// An executable pipeline plan: [`Plan::exec_stages`] plus
/// [`Plan::guard`] are the stages and guard of an
/// [`xtt_engine::Request`]; both strategies flow through the same engine
/// core — composed is simply a chain of length one.
pub struct Plan {
    pub strategy: Strategy,
    composed: Vec<ChainStage>,
    chained: Vec<ChainStage>,
    guard: Arc<CompiledDtta>,
    pub report: PlanReport,
}

impl Plan {
    /// The stage list the chosen strategy executes.
    pub fn exec_stages(&self) -> &[ChainStage] {
        self.stages_for(self.strategy)
    }

    /// The stage list a specific strategy executes (for differential
    /// tests and benches).
    pub fn stages_for(&self, strategy: Strategy) -> &[ChainStage] {
        match strategy {
            Strategy::Composed => &self.composed,
            Strategy::Chained => &self.chained,
        }
    }

    /// The shared domain guard: the exact chain domain
    /// `⋂ᵢ dom(Cᵢ) ∩ L(schema)` over the composed prefixes. Applying it
    /// to every request makes the two strategies byte-identical on
    /// rejections too (same position, same diagnostic).
    pub fn guard(&self) -> &CompiledDtta {
        &self.guard
    }

    pub fn guard_arc(&self) -> Arc<CompiledDtta> {
        Arc::clone(&self.guard)
    }
}

/// Probe-corpus knobs: enough documents to rank the strategies, small
/// enough that planning stays interactive.
const PROBE_MAX_DOCS: usize = 12;
const PROBE_MAX_SIZE: usize = 9;
const PROBE_REPS: usize = 24;

/// Plans a pipeline. `stages` are in application order (τ₁ first, the
/// order of the CLI's `--pipeline t1,t2`); `schema` constrains inputs and
/// enables specialization.
pub fn plan(
    stages: &[StageDef],
    schema: Option<&Dtta>,
    choice: StrategyChoice,
) -> Result<Plan, PlanError> {
    if stages.is_empty() {
        return Err(PlanError::EmptyPipeline);
    }
    let jump_entries = |c: &CompiledDtop| c.state_count() * c.symbol_count();

    // 1. Specialize each stage: the first against the schema product, the
    //    rest against the previous stage's emitted-symbol set.
    let mut chain_dtops: Vec<Arc<Dtop>> = Vec::with_capacity(stages.len());
    if let Some(schema) = schema {
        let sp = specialize_to_schema(&stages[0].dtop, schema).map_err(PlanError::Specialize)?;
        let mut emitted = sp.emitted;
        chain_dtops.push(Arc::new(sp.dtop));
        for stage in &stages[1..] {
            let sp = specialize_to_symbols(&stage.dtop, &emitted).map_err(PlanError::Specialize)?;
            emitted = sp.emitted;
            chain_dtops.push(Arc::new(sp.dtop));
        }
    } else {
        chain_dtops.extend(stages.iter().map(|s| Arc::clone(&s.dtop)));
    }

    // 2. Compose the specialized stages (left fold; compose(m2, m1) is
    //    "m1 first"), keeping every composed prefix — the guard needs all
    //    of them, not just the final product.
    let mut composed: Dtop = (*chain_dtops[0]).clone();
    let mut prefixes: Vec<Dtop> = vec![composed.clone()];
    for (stage, m) in stages[1..].iter().zip(&chain_dtops[1..]) {
        composed = compose(m, &composed).map_err(|e| PlanError::Compose {
            stage: stage.name.clone(),
            source: e,
        })?;
        prefixes.push(composed.clone());
    }

    // 3. Normalize the composition (earliest → minimize → canonical
    //    numbering). An empty domain is a planning error (nothing can ever
    //    be transformed); any other normalization failure falls back to
    //    the raw product, which is correct, just not minimal.
    let composed = match to_earliest(&composed, schema) {
        Ok(c) => match minimize(&c).and_then(|c| canonical_number(&c)) {
            Ok(min) => min.dtop,
            Err(_) => c.dtop,
        },
        Err(NormError::EmptyDomain) => return Err(PlanError::EmptyComposition),
        Err(_) => composed,
    };

    // 4. Compile both strategies and the shared guard.
    let composed_compiled = Arc::new(compile(&composed).map_err(PlanError::Compile)?);
    let mut chained: Vec<ChainStage> = Vec::with_capacity(chain_dtops.len());
    for m in &chain_dtops {
        chained.push(ChainStage {
            compiled: Arc::new(compile(m).map_err(PlanError::Compile)?),
        });
    }
    // The guard accepts the exact *chain* domain ⋂ᵢ dom(Cᵢ) ∩ L(schema):
    // intersecting every composed prefix forces each intermediate stage
    // value to be fully defined, which is what stage-by-stage execution
    // requires. dom(composed) alone would over-accept wherever a later
    // stage deletes an earlier stage's partial output (normalization
    // preserves domains, so the un-normalized prefixes are equivalent).
    let prefix_refs: Vec<&Dtop> = prefixes.iter().collect();
    let chain_domain = chain_domain_raw(&prefix_refs, schema);
    let guard = Arc::new(guard_from_domain(&chain_domain).map_err(PlanError::Typecheck)?);
    let composed_stage = vec![ChainStage {
        compiled: Arc::clone(&composed_compiled),
    }];

    // 5. Jump-table accounting: what the per-stage tables would cost
    //    without specialization vs what the specialized chain costs.
    let jump_specialized: usize = chained.iter().map(|s| jump_entries(&s.compiled)).sum();
    let jump_unspecialized: usize = if schema.is_some() {
        let mut total = 0;
        for stage in stages {
            total += jump_entries(&compile(&stage.dtop).map_err(PlanError::Compile)?);
        }
        total
    } else {
        jump_specialized
    };

    // 6. Cost model: sample the pipeline's own domain and race the two
    //    strategies. An empty probe corpus (empty or near-empty domain)
    //    falls back to the static size estimate.
    let domain = trim(&chain_domain.dtta);
    if is_empty(&domain) {
        return Err(PlanError::EmptyComposition);
    }
    let samples = enumerate_language(&domain, domain.initial(), PROBE_MAX_DOCS, PROBE_MAX_SIZE);
    let chained_code_len: usize = chained.iter().map(|s| s.compiled.code_len()).sum();
    let (composed_ns, chained_ns) = if samples.is_empty() {
        (0, 0)
    } else {
        (probe(&samples, &composed_stage), probe(&samples, &chained))
    };
    let (strategy, forced) = match choice {
        StrategyChoice::Composed => (Strategy::Composed, true),
        StrategyChoice::Chained => (Strategy::Chained, true),
        StrategyChoice::Auto => {
            let s = if samples.is_empty() {
                if composed_compiled.code_len() <= chained_code_len {
                    Strategy::Composed
                } else {
                    Strategy::Chained
                }
            } else if composed_ns <= chained_ns {
                Strategy::Composed
            } else {
                Strategy::Chained
            };
            (s, false)
        }
    };

    let report = PlanReport {
        stages: stages.iter().map(|s| s.name.clone()).collect(),
        strategy,
        forced,
        schema: schema.is_some(),
        composed_states: composed.state_count(),
        composed_code_len: composed_compiled.code_len(),
        chained_code_len,
        jump_entries_unspecialized: jump_unspecialized,
        jump_entries_specialized: jump_specialized,
        probe_docs: samples.len(),
        composed_probe_ns: composed_ns,
        chained_probe_ns: chained_ns,
        fingerprint: pipeline_fingerprint(stages, schema, choice),
    };
    Ok(Plan {
        strategy,
        composed: composed_stage,
        chained,
        guard,
        report,
    })
}

/// Total wall-clock nanoseconds to run `samples` through `stages`
/// (PROBE_REPS repetitions), using the same chained evaluator machinery
/// the engine uses — a chain of length one IS the composed strategy.
fn probe(samples: &[Tree], stages: &[ChainStage]) -> u64 {
    let mut chain = ChainedEvaluator::new();
    // Warm-up pass so allocation of evaluator scratch does not bias the
    // first strategy measured.
    for t in samples {
        let mut sink = TreeCollector::new();
        let _ = chain.eval_streaming(stages, &mut IterEvents(t.events()), &mut sink);
    }
    let start = Instant::now();
    for _ in 0..PROBE_REPS {
        for t in samples {
            let mut sink = TreeCollector::new();
            let _ = chain.eval_streaming(stages, &mut IterEvents(t.events()), &mut sink);
        }
    }
    start.elapsed().as_nanos() as u64
}

/// FNV-1a over the pipeline's identity: stage names + structural
/// fingerprints, the schema rendering, and the strategy choice. Cache key
/// and report field.
pub fn pipeline_fingerprint(
    stages: &[StageDef],
    schema: Option<&Dtta>,
    choice: StrategyChoice,
) -> u64 {
    fnv1a(pipeline_rendering(stages, schema, choice).as_bytes())
}

/// The exact rendering backing [`pipeline_fingerprint`] — stored next to
/// the hash in the plan cache so collisions cannot alias plans.
pub fn pipeline_rendering(
    stages: &[StageDef],
    schema: Option<&Dtta>,
    choice: StrategyChoice,
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = write!(s, "choice={};", choice.as_str());
    for stage in stages {
        let _ = write!(s, "{}:{:016x};", stage.name, fingerprint(&stage.dtop));
    }
    if let Some(a) = schema {
        let _ = write!(s, "schema={a}");
    }
    s
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
