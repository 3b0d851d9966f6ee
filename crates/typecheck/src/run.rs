//! Event-driven execution of a [`CompiledDtta`]: the fail-fast streaming
//! guard.
//!
//! A DTTA run is determined top-down, and pre-order events deliver each
//! node before its subtree — so the guard state of every node is known
//! the moment its `Open` event arrives, and an out-of-domain document is
//! rejected at the **first violating node**, after consuming strictly
//! fewer events than the document contains. [`DttaRun`] is the single
//! implementation behind both the pre-flight tree check
//! ([`CompiledDtta::check_tree`]) and the engine's lockstep streaming
//! guard (`xtt_engine::GuardedSource`), which is what makes the reported
//! diagnostics bit-identical across the engine's `tree` and `stream`
//! modes.
//!
//! Memory is `O(depth)`: one frame per open node, one path index per
//! level, and skipped (deleted) subtrees cost a single integer.

use xtt_trees::{NodePath, TreeEvent};

use crate::compiled::{CompiledDtta, TypeError, NONE_U32};

/// One open node of the run.
struct Frame {
    /// Start of the successor range in the automaton's arena
    /// ([`NONE_U32`] when the node is in a skip state).
    successors: u32,
    /// Number of successor states (= rank of the node's symbol).
    rank: u32,
    /// Children opened so far.
    next: u32,
    /// The node's symbol (for missing-child diagnostics).
    symbol: xtt_trees::Symbol,
}

/// An incremental run of a [`CompiledDtta`] over pre-order events.
pub struct DttaRun<'a> {
    c: &'a CompiledDtta,
    frames: Vec<Frame>,
    /// Child indices of the currently open non-root nodes.
    path: Vec<u32>,
    /// When > 0, the run is inside a skipped (never-inspected) subtree.
    skip_depth: usize,
    /// Whether the skipped subtree contributed an entry to `path`.
    skip_on_path: bool,
    /// Events consumed so far (the fail-fast accounting).
    consumed: u64,
    /// The root has closed; later events are outside the tree and are
    /// ignored (the evaluator rejects such streams on its own).
    done: bool,
}

impl<'a> DttaRun<'a> {
    pub fn new(c: &'a CompiledDtta) -> DttaRun<'a> {
        DttaRun {
            c,
            frames: Vec::new(),
            path: Vec::new(),
            skip_depth: 0,
            skip_on_path: false,
            consumed: 0,
            done: false,
        }
    }

    /// Events consumed so far. On a rejected document this is strictly
    /// smaller than the document's event count: everything after the
    /// first violating node is never consumed.
    pub fn events_consumed(&self) -> u64 {
        self.consumed
    }

    /// Whether the run is inside a subtree it never inspects (a skip
    /// state, or junk past the root). While true, any balanced event run
    /// is accepted without looking — so an event-source fast-forward may
    /// replace the subtree with one synthetic `Close`. While false, the
    /// run still needs the real events: a guard can be stricter than the
    /// machine driving it (a pipeline's chain guard inspects positions
    /// the composed product deletes), so fast paths must check this.
    pub fn in_skipped_subtree(&self) -> bool {
        self.skip_depth > 0
    }

    /// Feeds one event; `Err` is the first violation, after which the run
    /// must not be fed further.
    pub fn feed(&mut self, event: TreeEvent) -> Result<(), TypeError> {
        self.consumed += 1;
        if self.skip_depth > 0 {
            match event {
                TreeEvent::Open(_) => self.skip_depth += 1,
                TreeEvent::Close => {
                    self.skip_depth -= 1;
                    if self.skip_depth == 0 {
                        if self.skip_on_path {
                            self.path.pop();
                        } else {
                            self.done = true; // the skipped subtree was the root
                        }
                    }
                }
            }
            return Ok(());
        }
        match event {
            TreeEvent::Open(sym) => self.open(sym),
            TreeEvent::Close => self.close(),
        }
    }

    fn open(&mut self, sym: xtt_trees::Symbol) -> Result<(), TypeError> {
        let (state, on_path) = match self.frames.last_mut() {
            Some(frame) => {
                let i = frame.next;
                frame.next += 1;
                self.path.push(i);
                // A child beyond every rule's reach is never inspected.
                let state = if i < frame.rank {
                    self.c.successor(frame.successors, i)
                } else {
                    NONE_U32
                };
                (state, true)
            }
            None => {
                if self.done {
                    (NONE_U32, false) // trailing junk; the evaluator rejects
                } else {
                    (self.c.initial(), false)
                }
            }
        };
        if state == NONE_U32 || self.c.is_skip(state) {
            self.skip_depth = 1;
            self.skip_on_path = on_path;
            return Ok(());
        }
        let dense = self.c.dense_sym(sym);
        match self.c.transition_range(state, dense) {
            Some((successors, rank)) => {
                self.frames.push(Frame {
                    successors,
                    rank,
                    next: 0,
                    symbol: sym,
                });
                Ok(())
            }
            None => Err(TypeError::Symbol {
                path: NodePath::from_indices(&self.path),
                state: self.c.state_name(state).to_owned(),
                symbol: sym,
            }),
        }
    }

    fn close(&mut self) -> Result<(), TypeError> {
        let Some(frame) = self.frames.pop() else {
            self.done = true; // unbalanced close; the evaluator rejects
            return Ok(());
        };
        // Children the rules still reference but the node does not have.
        for i in frame.next..frame.rank {
            let state = self.c.successor(frame.successors, i);
            if state != NONE_U32 && !self.c.is_skip(state) {
                let mut indices = self.path.clone();
                indices.push(i);
                return Err(TypeError::MissingChild {
                    path: NodePath::from_indices(&indices),
                    state: self.c.state_name(state).to_owned(),
                    parent: frame.symbol,
                });
            }
        }
        if self.frames.is_empty() {
            self.done = true;
        } else {
            self.path.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::domain_guard;
    use xtt_trees::parse_tree;

    /// Feeds `t`'s events until the first violation: the events accepted
    /// before it, and the violation.
    fn feed_all(run: &mut DttaRun<'_>, t: &xtt_trees::Tree) -> (u64, Option<TypeError>) {
        let mut passed = 0;
        for event in t.events() {
            if let Err(violation) = run.feed(event) {
                return (passed, Some(violation));
            }
            passed += 1;
        }
        (passed, None)
    }

    #[test]
    fn guarded_events_stop_strictly_early_on_rejection() {
        let fix = xtt_transducer::examples::flip();
        let g = domain_guard(&fix.dtop).unwrap();
        // Violation at node 1.2 of a document with a long tail.
        let t = parse_tree("root(a(#,b(#,#)),b(#,b(#,b(#,#))))").unwrap();
        let total = 2 * t.size();
        let mut run = g.run();
        let (passed, violation) = feed_all(&mut run, &t);
        let violation = violation.expect("out of domain");
        assert_eq!(violation.path().to_string(), "1.2");
        assert!(run.events_consumed() < total);
        // The violating event itself is consumed but not accepted.
        assert_eq!(passed + 1, run.events_consumed());
    }

    #[test]
    fn guarded_events_pass_everything_in_domain() {
        let fix = xtt_transducer::examples::flip();
        let g = domain_guard(&fix.dtop).unwrap();
        let t = parse_tree("root(a(#,a(#,#)),b(#,#))").unwrap();
        let total = 2 * t.size();
        let mut run = g.run();
        let (passed, violation) = feed_all(&mut run, &t);
        assert_eq!(passed, total);
        assert!(violation.is_none());
    }

    #[test]
    fn constant_axiom_guard_skips_the_whole_document() {
        let fix = xtt_transducer::examples::constant_m1();
        let g = domain_guard(&fix.dtop).unwrap();
        // No state inspects anything: every tree is accepted wholesale.
        assert!(g.accepts(&parse_tree("f(a,f(a,a))").unwrap()));
        assert!(g.accepts(&parse_tree("unknown-symbol").unwrap()));
    }
}
