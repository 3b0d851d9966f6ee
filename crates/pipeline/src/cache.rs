//! The plan cache: planning runs a product construction, a normalization
//! fixpoint, and a chain-domain subset construction — far too much per
//! request. Plans are cached per pipeline *fingerprint* (stage names +
//! structural fingerprints + schema), reusing the engine's
//! collision-checked [`LruCache`], so re-registering a pipeline with an
//! unchanged definition is free and any change to a stage's rules misses.

use std::sync::Arc;

use xtt_automata::Dtta;
use xtt_engine::{CacheStats, LruCache};

use crate::plan::{
    pipeline_fingerprint, pipeline_rendering, plan, Plan, PlanError, StageDef, StrategyChoice,
};

pub struct PlanCache {
    inner: LruCache<Arc<Plan>>,
}

impl PlanCache {
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: LruCache::new(capacity),
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// The cached plan for this exact pipeline, planning on a miss with
    /// the cache unlocked. A failed plan caches nothing (the next attempt
    /// re-plans).
    pub fn get_or_plan(
        &self,
        stages: &[StageDef],
        schema: Option<&Dtta>,
    ) -> Result<Arc<Plan>, PlanError> {
        let rendering = pipeline_rendering(stages, schema);
        let fp = pipeline_fingerprint(stages, schema);
        self.inner.get_or_insert_with(fp, &rendering, || {
            plan(stages, schema, StrategyChoice::Auto).map(Arc::new)
        })
    }
}
