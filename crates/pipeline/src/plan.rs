//! Pipeline planning: τₙ ∘ … ∘ τ₁ (+ optional input schema) → an
//! executable plan, one compiled machine plus its guard.
//!
//! [`plan`] specializes each stage to the schema, folds
//! [`xtt_transducer::compose()`] over the stages, earliest-normalizes and
//! minimizes the product (the paper's earliest minimal normal form), and
//! compiles ONE [`xtt_engine::CompiledDtop`]: each input event is
//! processed once, and a pipeline executes exactly like a validated
//! transducer.
//!
//! The guard is the exact *chain* domain `⋂ᵢ dom(Cᵢ)` over the composed
//! prefixes `Cᵢ = τᵢ∘…∘τ₁`, intersected with the schema when present. The
//! final composed machine's domain alone would over-accept — when a later
//! stage deletes part of an earlier stage's output the product never
//! checks the earlier stage's partiality there — so the prefix
//! intersection is what makes the plan accept exactly the inputs on which
//! running the stages one after another is defined, and reject at exactly
//! the same node. The tests check the plan against the reference
//! evaluator applied stage by stage, `eval(τ₂, eval(τ₁, t))`; E17 times it
//! against the stages run one after another, one engine batch per stage.

use std::fmt;
use std::sync::Arc;

use xtt_automata::{is_empty, trim, Dtta};
use xtt_engine::{compile, fingerprint, ChainStage, CompileError, CompiledDtop};
use xtt_transducer::{
    canonical_number, chain_domain_raw, compose, minimize, to_earliest, Dtop, DtopError, NormError,
};
use xtt_typecheck::{guard_from_domain, CompiledDtta, TypecheckError};

use crate::specialize::{specialize_to_schema, specialize_to_symbols};

/// A pipeline always runs as its composed transducer, so `Auto` is the
/// only choice. Kept only because `perfbench/src/layers.rs` passes
/// `StrategyChoice::Auto` to [`plan()`].
#[derive(Clone, Copy, Debug)]
pub enum StrategyChoice {
    Auto,
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

/// What the planner built — rendered into `/pipelines/{name}` responses
/// and `BENCH_pipeline.json`.
#[derive(Clone, Debug)]
pub struct PlanReport {
    pub stages: Vec<String>,
    pub schema: bool,
    pub composed_states: usize,
    pub composed_code_len: usize,
    /// Σ states×symbols of the per-stage jump tables before/after schema
    /// specialization (equal when no schema was given).
    pub jump_entries_unspecialized: usize,
    pub jump_entries_specialized: usize,
    /// Fingerprint of the whole pipeline (stages + schema) — the
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
                "{{\"stages\":[{}],\"schema\":{},\"composed_states\":{},",
                "\"composed_code_len\":{},\"jump_entries_unspecialized\":{},",
                "\"jump_entries_specialized\":{},\"jump_table_shrink_pct\":{:.2},",
                "\"fingerprint\":\"{:016x}\"}}"
            ),
            stages.join(","),
            self.schema,
            self.composed_states,
            self.composed_code_len,
            self.jump_entries_unspecialized,
            self.jump_entries_specialized,
            self.jump_table_shrink_pct(),
            self.fingerprint,
        )
    }
}

/// An executable pipeline plan: [`Plan::machine`] plus [`Plan::guard`]
/// are the machine and guard of an [`xtt_engine::Request`].
pub struct Plan {
    stage: ChainStage,
    guard: Arc<CompiledDtta>,
    pub report: PlanReport,
}

impl Plan {
    /// The composed machine the plan executes.
    pub fn machine(&self) -> &Arc<CompiledDtop> {
        &self.stage.compiled
    }

    /// [`Plan::machine`] as a one-element stage list, kept only for
    /// `perfbench/src/layers.rs` (`Engine::transform_batch_chain`).
    pub fn exec_stages(&self) -> &[ChainStage] {
        std::slice::from_ref(&self.stage)
    }

    /// The domain guard: the exact chain domain `⋂ᵢ dom(Cᵢ) ∩ L(schema)`
    /// over the composed prefixes, so the plan rejects exactly where the
    /// stage-by-stage run would (same position, same diagnostic).
    pub fn guard(&self) -> &CompiledDtta {
        &self.guard
    }

    pub fn guard_arc(&self) -> Arc<CompiledDtta> {
        Arc::clone(&self.guard)
    }
}

/// Plans a pipeline. `stages` are in application order (τ₁ first, the
/// order of the CLI's `--pipeline t1,t2`); `schema` constrains inputs and
/// enables specialization.
pub fn plan(
    stages: &[StageDef],
    schema: Option<&Dtta>,
    _choice: StrategyChoice,
) -> Result<Plan, PlanError> {
    if stages.is_empty() {
        return Err(PlanError::EmptyPipeline);
    }

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

    // 4. Compile the composed machine and build the guard. The guard
    //    accepts the exact *chain* domain ⋂ᵢ dom(Cᵢ) ∩ L(schema):
    //    intersecting every composed prefix forces each intermediate stage
    //    value to be fully defined, which is what stage-by-stage execution
    //    requires. dom(composed) alone would over-accept wherever a later
    //    stage deletes an earlier stage's partial output (normalization
    //    preserves domains, so the un-normalized prefixes are equivalent).
    let compiled = Arc::new(compile(&composed).map_err(PlanError::Compile)?);
    let prefix_refs: Vec<&Dtop> = prefixes.iter().collect();
    let chain_domain = chain_domain_raw(&prefix_refs, schema);
    let guard = Arc::new(guard_from_domain(&chain_domain).map_err(PlanError::Typecheck)?);
    if is_empty(&trim(&chain_domain.dtta)) {
        return Err(PlanError::EmptyComposition);
    }

    // 5. Jump-table accounting: what the per-stage tables would cost
    //    without specialization vs what the specialized stages cost.
    let jump_specialized = jump_entries(chain_dtops.iter().map(|m| &**m));
    let jump_unspecialized = if schema.is_some() {
        jump_entries(stages.iter().map(|s| &*s.dtop))
    } else {
        jump_specialized
    };

    let report = PlanReport {
        stages: stages.iter().map(|s| s.name.clone()).collect(),
        schema: schema.is_some(),
        composed_states: composed.state_count(),
        composed_code_len: compiled.code_len(),
        jump_entries_unspecialized: jump_unspecialized,
        jump_entries_specialized: jump_specialized,
        fingerprint: pipeline_fingerprint(stages, schema),
    };
    Ok(Plan {
        stage: ChainStage { compiled },
        guard,
        report,
    })
}

/// Σ states×symbols of the jump tables [`compile`] builds for `dtops`.
fn jump_entries<'a>(dtops: impl Iterator<Item = &'a Dtop>) -> usize {
    dtops.map(|m| m.state_count() * m.input().len()).sum()
}

/// FNV-1a over the pipeline's identity: stage names + structural
/// fingerprints and the schema rendering. Cache key and report field.
pub fn pipeline_fingerprint(stages: &[StageDef], schema: Option<&Dtta>) -> u64 {
    fnv1a(pipeline_rendering(stages, schema).as_bytes())
}

/// The exact rendering backing [`pipeline_fingerprint`] — stored next to
/// the hash in the plan cache so collisions cannot alias plans.
pub fn pipeline_rendering(stages: &[StageDef], schema: Option<&Dtta>) -> String {
    use std::fmt::Write;
    let mut s = String::new();
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
