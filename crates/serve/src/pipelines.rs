//! The named-pipeline registry behind `PUT /pipelines/{name}`.
//!
//! A pipeline is a sequence of *registered transducers* τₙ ∘ … ∘ τ₁ plus
//! an optional input schema (the domain automaton of an uploaded DTD
//! encoding, `?schema={encoding}`). Registration snapshots the current
//! stage definitions and plans them once (`xtt_pipeline::plan`): schema
//! specialization, static composition + normalization, compilation of the
//! composed machine, and its chain-domain guard. Plans are memoized in a
//! [`PlanCache`] keyed by the pipeline fingerprint, sized like the
//! engine's compile LRU, so re-registering an unchanged pipeline is free
//! while any stage hot-swap re-plans.
//!
//! Entries are immutable `Arc`s behind an `RwLock`, hot-swappable like
//! the transducer registry: in-flight transforms keep the old plan.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use xtt_automata::Dtta;
use xtt_engine::CacheStats;
use xtt_pipeline::{Plan, PlanCache, PlanError, StageDef};

use crate::registry::escape_json;

/// One registered pipeline: its definition plus the executable plan.
pub struct PipelineEntry {
    pub name: String,
    /// The `?schema=` encoding name the input schema came from, if any.
    pub schema: Option<String>,
    pub plan: Arc<Plan>,
}

impl PipelineEntry {
    /// The JSON summary used by the list, upload, and inspect responses.
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"schema\":{},\"plan\":{}}}",
            escape_json(&self.name),
            self.schema
                .as_deref()
                .map_or_else(|| "null".to_owned(), |s| format!("\"{}\"", escape_json(s))),
            self.plan.report.json(),
        )
    }
}

/// Thread-safe name → pipeline map plus the shared plan cache.
pub struct PipelineRegistry {
    entries: RwLock<HashMap<String, Arc<PipelineEntry>>>,
    cache: PlanCache,
}

impl PipelineRegistry {
    /// `capacity` bounds the plan cache (the server passes the engine's
    /// compile-LRU capacity, so pipeline cardinality tracks it).
    pub fn new(capacity: usize) -> PipelineRegistry {
        PipelineRegistry {
            entries: RwLock::new(HashMap::new()),
            cache: PlanCache::new(capacity),
        }
    }

    /// Plans and registers (or hot-swaps) a pipeline. The stage dtops are
    /// snapshots: deleting or replacing a stage transducer later does not
    /// disturb an already-registered pipeline.
    pub fn register(
        &self,
        name: &str,
        stages: Vec<StageDef>,
        schema: Option<(String, Dtta)>,
    ) -> Result<Arc<PipelineEntry>, PlanError> {
        let plan = self
            .cache
            .get_or_plan(&stages, schema.as_ref().map(|(_, d)| d))?;
        let entry = Arc::new(PipelineEntry {
            name: name.to_owned(),
            schema: schema.map(|(n, _)| n),
            plan,
        });
        self.write().insert(name.to_owned(), Arc::clone(&entry));
        Ok(entry)
    }

    pub fn get(&self, name: &str) -> Option<Arc<PipelineEntry>> {
        self.read().get(name).cloned()
    }

    pub fn remove(&self, name: &str) -> bool {
        self.write().remove(name).is_some()
    }

    pub fn len(&self) -> usize {
        self.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Plan-cache hit/miss/entry counts for `/stats` and `/metrics`.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// JSON array of all entries, sorted by name.
    pub fn list_json(&self) -> String {
        let map = self.read();
        let mut entries: Vec<_> = map.values().collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let items: Vec<String> = entries.iter().map(|e| e.json()).collect();
        format!("[{}]", items.join(","))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<PipelineEntry>>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<PipelineEntry>>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtt_transducer::{examples, identity};

    fn stage(name: &str, dtop: xtt_transducer::Dtop) -> StageDef {
        StageDef {
            name: name.to_owned(),
            dtop: Arc::new(dtop),
        }
    }

    #[test]
    fn register_resolve_and_remove() {
        let reg = PipelineRegistry::new(4);
        let fix = examples::flip();
        let stages = vec![
            stage("flip", fix.dtop.clone()),
            stage("id", identity(fix.dtop.output())),
        ];
        let entry = reg.register("pp", stages.clone(), None).unwrap();
        assert_eq!(entry.plan.report.stages, vec!["flip", "id"]);
        assert!(reg.get("pp").is_some());
        assert!(reg.list_json().contains("\"pp\""));
        // Identical re-registration hits the plan cache.
        reg.register("pp2", stages, None).unwrap();
        assert_eq!(reg.plan_cache_stats().hits, 1);
        assert!(reg.remove("pp"));
        assert!(reg.get("pp").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn empty_composition_is_a_plan_error() {
        let reg = PipelineRegistry::new(4);
        // Stage 2 only accepts inputs rooted at `a`; flip only ever emits
        // `root` at the root, so the composed domain is empty.
        let fix = examples::flip();
        let alpha = fix.dtop.output().clone();
        let a = *alpha
            .symbols()
            .iter()
            .find(|s| s.name() == "a")
            .expect("symbol a");
        let mut b = xtt_transducer::Dtop::builder(alpha.clone(), alpha);
        let q = b.add_state("q");
        b.set_axiom(xtt_transducer::Rhs::Call { state: q, child: 0 });
        let leaf = *fix
            .dtop
            .output()
            .symbols()
            .iter()
            .find(|s| s.name() == "#")
            .expect("symbol #");
        b.add_rule(q, a, xtt_transducer::Rhs::Out(leaf, vec![]))
            .unwrap();
        let only_a = b.build().unwrap();
        let stages = vec![stage("flip", fix.dtop), stage("only_a", only_a)];
        match reg.register("ff", stages, None) {
            Err(PlanError::EmptyComposition) => {}
            Err(e) => panic!("expected EmptyComposition, got: {e}"),
            Ok(_) => panic!("expected EmptyComposition, got a plan"),
        }
    }
}
