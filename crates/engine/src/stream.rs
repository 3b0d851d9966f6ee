//! The streaming front end: run a compiled dtop directly over a pre-order
//! event stream, materializing only the spine the top-down run needs.
//!
//! A dtop run is determined from the root downwards, and pre-order events
//! deliver the root first — so the *set of states* processing every node
//! is known the moment its `Open` event arrives:
//!
//! * on `Open`, the live state set of the new node is derived from its
//!   parent's live states and rules ([`CompiledDtop::states_for_child`]);
//!   if the set is **empty** the subtree is *deleted* by the run and is
//!   skipped wholesale — its events are counted, never stored;
//! * on `Close`, every live state's rule is executed against the already
//!   computed per-child results, and the input node is discarded.
//!
//! Memory is therefore `O(spine · |Q| · |output so far|)` instead of the
//! whole document, and deleted subtrees cost one integer of bookkeeping.
//! Combined with [`XmlRankedEvents`], an XML document is transformed
//! while it is being tokenized, without ever building the input tree.
//!
//! Partiality is exact: a live state without a rule for the node's symbol,
//! or a call to a child the node does not have, aborts with `None` — the
//! same inputs are undefined as for `xtt_transducer::eval::eval`.
//!
//! [`StreamEvaluator`] runs one compiled machine over one source: start
//! (the axiom's committed prefix), feed every event — fast-forwarding the
//! source past each subtree the run deletes — then finish.
//! [`GuardedSource`] puts a domain guard in lockstep in front of any
//! source.

use std::collections::VecDeque;
use std::io;

use xtt_trees::{tree_from_events, Symbol, Tree, TreeEvent};
use xtt_typecheck::{CompiledDtta, DttaRun, TypeError};
use xtt_xml::{xml_events, XmlError, XmlEvent, XmlEventReader};

use crate::compile::{CompiledDtop, Instr};

/// A pull source of pre-order tree events with an optional fast path for
/// skipping whole subtrees.
///
/// The streaming evaluator discovers, at each `Open`, whether *any*
/// state will inspect the subtree; when none will (a deleted subtree),
/// it calls [`TreeEventSource::skip_subtree`] so the source can discard
/// the subtree at whatever level is cheapest — [`XmlRankedEvents`]
/// fast-forwards the raw SAX reader past the element without tokenizing
/// it. Sources without a fast path return `false` and the evaluator
/// falls back to counting events.
pub trait TreeEventSource {
    /// The next event, or `None` at end of stream (or on a source error
    /// — the source records it for the caller to surface).
    fn next_event(&mut self) -> Option<TreeEvent>;

    /// Called immediately after [`TreeEventSource::next_event`] returned
    /// an `Open`: consume the rest of that node's subtree (descendants
    /// and the matching `Close`) without delivering it. `false` =
    /// unsupported here; the caller consumes the events instead.
    fn skip_subtree(&mut self) -> bool {
        false
    }
}

impl<S: TreeEventSource + ?Sized> TreeEventSource for &mut S {
    fn next_event(&mut self) -> Option<TreeEvent> {
        (**self).next_event()
    }

    fn skip_subtree(&mut self) -> bool {
        (**self).skip_subtree()
    }
}

/// Adapts any plain event iterator into a [`TreeEventSource`] (no skip
/// fast path).
pub struct IterEvents<I>(pub I);

impl<I: Iterator<Item = TreeEvent>> TreeEventSource for IterEvents<I> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        self.0.next()
    }
}

/// What the most recently delivered event was, for
/// [`XmlRankedEvents::skip_subtree`].
enum LastOpen {
    Other,
    /// An element `Start` — skipping fast-forwards the raw reader.
    Element,
    /// A queued `Open` (text token or attribute-block node) whose
    /// balanced remainder sits in the queue.
    Token,
}

/// [`TreeEventSource`] straight off the SAX tokenizer: elements become
/// symbols of their child count, character data one leaf per
/// whitespace-separated token (so adjacent rank-0 symbols like the fc/ns
/// `#` read as `# #`). The raw fast-forward
/// ([`XmlEventReader::skip_subtree`]) is wired through — deleted subtrees
/// are not tokenized at all.
pub struct XmlRankedEvents<'a> {
    reader: XmlEventReader<'a>,
    queue: VecDeque<TreeEvent>,
    bounded: bool,
    attrs: bool,
    error: Option<XmlError>,
    last: LastOpen,
    skipped_subtrees: u64,
}

impl<'a> XmlRankedEvents<'a> {
    /// Faithful symbol interning: every name is interned into the
    /// process-global symbol table (trusted input only).
    pub fn new(xml: &'a str) -> XmlRankedEvents<'a> {
        XmlRankedEvents {
            reader: xml_events(xml),
            queue: VecDeque::new(),
            bounded: false,
            attrs: false,
            error: None,
            last: LastOpen::Other,
            skipped_subtrees: 0,
        }
    }

    /// Bounded symbol resolution (serving paths): out-of-vocabulary
    /// names map to [`unknown_symbol`] instead of growing the interner.
    pub fn bounded(xml: &'a str) -> XmlRankedEvents<'a> {
        XmlRankedEvents {
            bounded: true,
            ..XmlRankedEvents::new(xml)
        }
    }

    /// Surface attributes in the ranked encoding (`DocFormat::XmlAttrs`):
    /// an element with attributes gains an `@attrs` **first child**,
    /// holding one `@name` node per attribute whose children are the
    /// whitespace-tokenized value (so transducer rules can finally see
    /// attributes — they address them like any other child subtree).
    /// Attribute-free elements encode exactly as without this option.
    pub fn attributes(mut self, on: bool) -> XmlRankedEvents<'a> {
        self.attrs = on;
        self
    }

    fn resolve(&self, name: &str) -> Symbol {
        if self.bounded {
            Symbol::lookup(name).unwrap_or_else(unknown_symbol)
        } else {
            Symbol::new(name)
        }
    }

    /// The tokenizer (or fast-forward) error, if one ended the stream.
    pub fn take_error(&mut self) -> Option<XmlError> {
        self.error.take()
    }

    /// Subtrees discarded via the fast path (observability and tests).
    pub fn skipped_subtrees(&self) -> u64 {
        self.skipped_subtrees
    }

    /// Drains the source into a ranked tree (`tree` mode; same mapping,
    /// same bounded/attrs configuration).
    pub fn collect_tree(mut self) -> Result<Tree, XmlError> {
        let events: Vec<TreeEvent> = std::iter::from_fn(|| self.next_event()).collect();
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        let at = self.reader.byte_pos();
        tree_from_events(events).map_err(|e| XmlError {
            offset: at,
            message: e.to_string(),
        })
    }
}

impl TreeEventSource for XmlRankedEvents<'_> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        if let Some(ev) = self.queue.pop_front() {
            self.last = match ev {
                TreeEvent::Open(_) => LastOpen::Token,
                TreeEvent::Close => LastOpen::Other,
            };
            return Some(ev);
        }
        if self.error.is_some() {
            return None;
        }
        loop {
            match self.reader.next()? {
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
                Ok(XmlEvent::Start { name, attrs }) => {
                    if self.attrs && !attrs.is_empty() {
                        // Queued behind the element's own Open, so a skip
                        // at the element level discards them with it.
                        self.queue
                            .push_back(TreeEvent::Open(self.resolve("@attrs")));
                        for a in &attrs {
                            let slot = self.resolve(&format!("@{}", a.name));
                            self.queue.push_back(TreeEvent::Open(slot));
                            for token in a.value.split_whitespace() {
                                let sym = self.resolve(token);
                                self.queue.push_back(TreeEvent::Open(sym));
                                self.queue.push_back(TreeEvent::Close);
                            }
                            self.queue.push_back(TreeEvent::Close);
                        }
                        self.queue.push_back(TreeEvent::Close);
                    }
                    self.last = LastOpen::Element;
                    return Some(TreeEvent::Open(self.resolve(name)));
                }
                Ok(XmlEvent::End(_)) => {
                    self.last = LastOpen::Other;
                    return Some(TreeEvent::Close);
                }
                Ok(XmlEvent::Text(text)) => {
                    for token in text.split_whitespace() {
                        let sym = self.resolve(token);
                        self.queue.push_back(TreeEvent::Open(sym));
                        self.queue.push_back(TreeEvent::Close);
                    }
                    if let Some(ev) = self.queue.pop_front() {
                        self.last = LastOpen::Token;
                        return Some(ev);
                    }
                }
            }
        }
    }

    fn skip_subtree(&mut self) -> bool {
        match self.last {
            LastOpen::Element => {
                // Fast-forward the raw reader; a structural error inside
                // the skipped region ends the stream like any tokenizer
                // error (the caller surfaces it). Queued events (the
                // element's own attribute block) belong to the skipped
                // subtree and are dropped with it.
                self.queue.clear();
                if let Err(e) = self.reader.skip_subtree() {
                    self.error = Some(e);
                }
                self.skipped_subtrees += 1;
                self.last = LastOpen::Other;
                true
            }
            LastOpen::Token => {
                // A queued Open (text token, or a node of an attribute
                // block): drain its balanced remainder from the queue —
                // one Close for a leaf token, a whole nested run for
                // `@attrs`/`@name` nodes.
                let mut depth = 1usize;
                while depth > 0 {
                    match self.queue.pop_front() {
                        Some(TreeEvent::Open(_)) => depth += 1,
                        Some(TreeEvent::Close) => depth -= 1,
                        None => break, // unreachable: queued runs are balanced
                    }
                }
                self.skipped_subtrees += 1;
                self.last = LastOpen::Other;
                true
            }
            LastOpen::Other => false,
        }
    }
}

/// Runs a compiled domain guard in lockstep with any
/// [`TreeEventSource`], cutting the stream at the first violation; the
/// skip fast path is forwarded only when the guard itself is skipping.
/// For a transducer's own domain guard the `∅`-skip state and the
/// evaluator's empty state set coincide, so every evaluator skip
/// forwards; a pipeline's *chain* guard can be stricter than the
/// composed machine executing it (it checks positions later stages
/// delete), so a skip the guard does not share is declined and the
/// events stream through the run instead. This is the one lockstep guard
/// adaptor: every guarded streaming path wraps its source in it.
pub struct GuardedSource<'g, S> {
    inner: S,
    run: DttaRun<'g>,
    violation: Option<TypeError>,
}

impl<'g, S: TreeEventSource> GuardedSource<'g, S> {
    pub fn new(guard: &'g CompiledDtta, inner: S) -> GuardedSource<'g, S> {
        GuardedSource {
            inner,
            run: guard.run(),
            violation: None,
        }
    }

    /// Takes the recorded violation out of the adaptor.
    pub fn take_violation(&mut self) -> Option<TypeError> {
        self.violation.take()
    }
}

impl<S: TreeEventSource> TreeEventSource for GuardedSource<'_, S> {
    fn next_event(&mut self) -> Option<TreeEvent> {
        if self.violation.is_some() {
            return None;
        }
        let event = self.inner.next_event()?;
        let fed = self.run.feed(event).map(|()| event);
        fed.map_err(|violation| self.violation = Some(violation))
            .ok()
    }

    fn skip_subtree(&mut self) -> bool {
        // Decline unless the guard entered a skip state at the Open it
        // just saw: a chain guard still inspects subtrees the executing
        // machine deletes, and must see their real events.
        if !self.run.in_skipped_subtree() || !self.inner.skip_subtree() {
            return false;
        }
        // One synthetic Close rebalances the skipping guard (cannot
        // violate).
        let _ = self.run.feed(TreeEvent::Close);
        true
    }
}

/// Where the streaming evaluator's output events go.
///
/// Implementations receive the output tree's pre-order events exactly
/// once, in order. [`OutputSink::tree`] delivers a whole completed
/// subtree at the current position — the default replays its events, but
/// tree-building sinks (like [`TreeCollector`]) override it to graft the
/// subtree without a rebuild. Errors use [`io::Error`] so socket-backed
/// sinks (the serving path) surface write failures unchanged.
pub trait OutputSink {
    /// One pre-order event of the output tree.
    fn event(&mut self, ev: TreeEvent) -> io::Result<()>;

    /// A whole completed subtree at the current position (a buffered
    /// region's result). Equivalent to replaying `t.events()`.
    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        t.events().try_for_each(|ev| self.event(ev))
    }
}

impl<T: OutputSink + ?Sized> OutputSink for &mut T {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        (**self).event(ev)
    }

    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        (**self).tree(t)
    }
}

/// [`OutputSink`] that rebuilds the output tree — the adapter behind the
/// tree-returning evaluation API. Subtrees delivered via
/// [`OutputSink::tree`] are grafted by reference count, not rebuilt.
#[derive(Default)]
pub struct TreeCollector {
    stack: Vec<(Symbol, Vec<Tree>)>,
    done: Option<Tree>,
}

impl TreeCollector {
    pub fn new() -> TreeCollector {
        TreeCollector::default()
    }

    /// The collected tree, if a complete one was emitted.
    pub fn into_tree(self) -> Option<Tree> {
        self.done.filter(|_| self.stack.is_empty())
    }
}

impl OutputSink for TreeCollector {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        match ev {
            TreeEvent::Open(sym) => self.stack.push((sym, Vec::new())),
            TreeEvent::Close => {
                let (sym, children) = self
                    .stack
                    .pop()
                    .expect("the evaluator emits balanced events");
                let t = Tree::new(sym, children);
                match self.stack.last_mut() {
                    Some((_, siblings)) => siblings.push(t),
                    None => self.done = Some(t),
                }
            }
        }
        Ok(())
    }

    fn tree(&mut self, t: &Tree) -> io::Result<()> {
        match self.stack.last_mut() {
            Some((_, siblings)) => siblings.push(t.clone()),
            None => self.done = Some(t.clone()),
        }
        Ok(())
    }
}

/// [`OutputSink`] over a closure — event taps for tests and benches.
pub struct FnSink<F: FnMut(TreeEvent)>(pub F);

impl<F: FnMut(TreeEvent)> OutputSink for FnSink<F> {
    fn event(&mut self, ev: TreeEvent) -> io::Result<()> {
        (self.0)(ev);
        Ok(())
    }
}

/// Emission statistics of one streaming run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmitStats {
    /// Output events handed to the sink from the streaming (live) path —
    /// emitted the moment their prefix was committed, before the input
    /// was fully consumed.
    pub events_emitted_early: u64,
    /// High-water mark of *buffered* frames on the spine (frames inside
    /// permuting/copying regions, which must materialize their results).
    /// 0 on a fully order-preserving run.
    pub peak_buffered_frames: usize,
    /// Total output events delivered (subtree flushes count theirs).
    pub events_total: u64,
}

/// A live (streaming) frame: its rule body is executed as a coroutine.
/// The output prefix is emitted the moment it is committed; execution
/// parks at each `⟨q, x_i⟩` call until input child `i`'s own output has
/// streamed, then resumes. Only rules whose calls visit strictly
/// increasing children run live — see [`live_shape`].
struct LiveFrame {
    /// Resume point in the instruction arena.
    pos: u32,
    end: u32,
    /// Remaining child slots of output nodes opened but not yet closed.
    opens: Vec<u32>,
    /// The call whose subtree is being awaited: `(state, input child)`.
    pending: Option<(u16, u16)>,
    /// Index of the next input child to arrive.
    next_child: u32,
}

impl LiveFrame {
    fn new(start: u32, end: u32) -> LiveFrame {
        LiveFrame {
            pos: start,
            end,
            opens: Vec::new(),
            pending: None,
            next_child: 0,
        }
    }
}

enum FKind {
    /// Order-preserving region: output streams through the sink.
    Live(LiveFrame),
    /// Permuting/copying region (or multiple live states): per-child
    /// results are materialized and the rule executes at `Close`, as the
    /// pre-refactor evaluator always did.
    Buffered {
        /// For each already-closed child, its `(state, result)` pairs
        /// sorted by state.
        child_results: Vec<Vec<(u16, Tree)>>,
    },
}

/// One open input node on the spine.
struct SFrame {
    /// Dense input symbol of the node.
    sym: u32,
    /// Sorted live states processing this node (always a singleton for
    /// [`FKind::Live`]).
    states: Vec<u16>,
    kind: FKind,
}

/// The context above the root frame: the axiom, run live when it has
/// exactly one call (its prefix is then emitted before the first input
/// event), buffered otherwise.
#[derive(Default)]
enum Top {
    Live(LiveFrame),
    #[default]
    Buffered,
}

/// A rule body streams iff its calls visit strictly increasing children:
/// no copying (the same child twice) and no permutation (an earlier
/// child after a later one). Every output prefix is then committed when
/// execution reaches it — no later sibling can precede it.
fn live_shape(c: &CompiledDtop, start: u32, end: u32) -> bool {
    let mut last: i64 = -1;
    for instr in &c.code()[start as usize..end as usize] {
        if let Instr::Call { child, .. } = *instr {
            if i64::from(child) <= last {
                return false;
            }
            last = i64::from(child);
        }
    }
    true
}

fn call_count(c: &CompiledDtop, start: u32, end: u32) -> usize {
    c.code()[start as usize..end as usize]
        .iter()
        .filter(|i| matches!(i, Instr::Call { .. }))
        .count()
}

fn emit<S: OutputSink + ?Sized>(
    sink: &mut S,
    stats: &mut EmitStats,
    ev: TreeEvent,
) -> io::Result<()> {
    stats.events_emitted_early += 1;
    stats.events_total += 1;
    sink.event(ev)
}

/// Flushes a materialized subtree at the current output position.
fn flush_tree<S: OutputSink + ?Sized>(
    sink: &mut S,
    stats: &mut EmitStats,
    t: &Tree,
    early: bool,
) -> io::Result<()> {
    // Saturating: a copying transducer's shared output can have far
    // more nodes than a u64 counts (the output-node cap rejects it).
    let events = t.size().saturating_mul(2);
    stats.events_total = stats.events_total.saturating_add(events);
    if early {
        stats.events_emitted_early = stats.events_emitted_early.saturating_add(events);
    }
    sink.tree(t)
}

/// A completed subtree at the live frame's position: close every output
/// node this finishes.
fn close_completed<S: OutputSink + ?Sized>(
    lf: &mut LiveFrame,
    sink: &mut S,
    stats: &mut EmitStats,
) -> io::Result<()> {
    while let Some(last) = lf.opens.last_mut() {
        *last -= 1;
        if *last == 0 {
            lf.opens.pop();
            emit(sink, stats, TreeEvent::Close)?;
        } else {
            break;
        }
    }
    Ok(())
}

/// Executes a live frame's rule body from its resume point until the
/// next call (parking there) or the end of the body.
fn live_step<S: OutputSink + ?Sized>(
    c: &CompiledDtop,
    lf: &mut LiveFrame,
    sink: &mut S,
    stats: &mut EmitStats,
) -> io::Result<()> {
    let code = c.code();
    while lf.pos < lf.end {
        let instr = code[lf.pos as usize];
        lf.pos += 1;
        match instr {
            Instr::Out { sym, arity: 0 } => {
                emit(sink, stats, TreeEvent::Open(sym))?;
                emit(sink, stats, TreeEvent::Close)?;
                close_completed(lf, sink, stats)?;
            }
            Instr::Out { sym, arity } => {
                emit(sink, stats, TreeEvent::Open(sym))?;
                lf.opens.push(arity);
            }
            Instr::Call { q, child } => {
                lf.pending = Some((q, child));
                return Ok(());
            }
        }
    }
    Ok(())
}

/// A live-context child's output just completed: resume the enclosing
/// live frame (the parent on the spine, or the live axiom when the root
/// itself closed — in which case the run is done).
fn resume_after_child<S: OutputSink + ?Sized>(
    c: &CompiledDtop,
    frames: &mut [SFrame],
    top: &mut Top,
    sink: &mut S,
    stats: &mut EmitStats,
    done: &mut bool,
) -> io::Result<()> {
    let at_top = frames.is_empty();
    let lf = match frames.last_mut() {
        Some(SFrame {
            kind: FKind::Live(lf),
            ..
        }) => lf,
        Some(_) => unreachable!("buffered parents collect results, they are not resumed"),
        None => match top {
            Top::Live(lf) => lf,
            Top::Buffered => unreachable!("buffered top collects the root result"),
        },
    };
    debug_assert!(lf.pending.is_some());
    lf.pending = None;
    close_completed(lf, sink, stats)?;
    live_step(c, lf, sink, stats)?;
    if at_top {
        // The axiom has exactly one call, so it now ran to completion.
        debug_assert!(lf.pending.is_none());
        *done = true;
    }
    Ok(())
}

/// What a newly opened input node is to its enclosing context.
enum Ctx {
    /// The pending call child of a live context: evaluate in this state.
    Call(u16),
    /// A live context's uncalled child: its subtree is deleted.
    Skip,
    /// A buffered context: the derived live state set.
    States(Vec<u16>),
}

/// What a [`StreamRun`] asks of its driver after one input event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Feed {
    /// Keep feeding events.
    More,
    /// The event opened a subtree no state inspects. The run will count
    /// it out event by event — unless the driver can fast-forward its
    /// source past the subtree, in which case it calls
    /// [`StreamRun::fast_forwarded`] and resumes after the matching
    /// `Close`.
    SkipOpen,
    /// The input is outside the domain (or not exactly one well-nested
    /// tree). The run is dead; every further event returns this too.
    Rejected,
    /// The output is complete. Any further event rejects the run (the
    /// stream would not be exactly one tree).
    Done,
}

/// One incremental streaming evaluation, driven by
/// [`StreamEvaluator::eval_streaming`]: feed pre-order input events one
/// at a time; committed output prefixes flow to the sink the moment they
/// commit.
#[derive(Default)]
struct StreamRun {
    frames: Vec<SFrame>,
    /// Scratch for rule execution (see [`StreamRun::exec_range`]).
    exec_vals: Vec<Tree>,
    exec_frames: Vec<(Symbol, u32, u32)>,
    states_scratch: Vec<u16>,
    stats: EmitStats,
    buffered: usize,
    skip_depth: usize,
    root_skipped: bool,
    root_seen: bool,
    done: bool,
    rejected: bool,
    top: Top,
}

impl StreamRun {
    /// Resets the run for a fresh input and executes the axiom's
    /// committed prefix (emitted before the first input event when the
    /// axiom is live).
    fn start<S: OutputSink + ?Sized>(&mut self, c: &CompiledDtop, sink: &mut S) -> io::Result<()> {
        self.frames.clear();
        self.stats = EmitStats::default();
        self.buffered = 0;
        self.skip_depth = 0;
        self.root_skipped = false;
        self.root_seen = false;
        self.done = false;
        self.rejected = false;
        let (ax_start, ax_end) = c.axiom_range();
        self.top = if call_count(c, ax_start, ax_end) == 1 {
            // Exactly one call (necessarily on the root): the axiom's
            // prefix is committed before the first input event arrives.
            let mut lf = LiveFrame::new(ax_start, ax_end);
            live_step(c, &mut lf, sink, &mut self.stats)?;
            Top::Live(lf)
        } else {
            // A constant axiom (emitted at the end, preserving the
            // pre-streaming behavior on malformed input) or one that
            // copies the root.
            Top::Buffered
        };
        Ok(())
    }

    fn reject(&mut self) -> io::Result<Feed> {
        self.rejected = true;
        Ok(Feed::Rejected)
    }

    /// Feeds one pre-order input event. Must be called between
    /// [`StreamRun::start`] and [`StreamRun::finish`] with the same
    /// compiled dtop and sink.
    fn feed<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        event: TreeEvent,
        sink: &mut S,
    ) -> io::Result<Feed> {
        if self.rejected {
            return Ok(Feed::Rejected);
        }
        if self.done {
            return self.reject(); // events after the root closed
        }
        if self.skip_depth > 0 {
            match event {
                TreeEvent::Open(_) => self.skip_depth += 1,
                TreeEvent::Close => self.skip_depth -= 1,
            }
            return Ok(Feed::More);
        }
        match event {
            TreeEvent::Open(sym) => {
                let ctx = match self.frames.last_mut() {
                    Some(parent) => match &mut parent.kind {
                        FKind::Live(lf) => {
                            let i = lf.next_child;
                            lf.next_child += 1;
                            match lf.pending {
                                Some((q, child)) if u32::from(child) == i => Ctx::Call(q),
                                _ => Ctx::Skip,
                            }
                        }
                        FKind::Buffered { child_results } => {
                            let child = child_results.len();
                            c.states_for_child(
                                &parent.states,
                                parent.sym,
                                child,
                                &mut self.states_scratch,
                            );
                            Ctx::States(std::mem::take(&mut self.states_scratch))
                        }
                    },
                    None => {
                        if self.root_seen || self.root_skipped {
                            return self.reject(); // more than one root
                        }
                        self.root_seen = true;
                        match &self.top {
                            Top::Live(lf) => match lf.pending {
                                Some((q, 0)) => Ctx::Call(q),
                                _ => Ctx::Skip,
                            },
                            Top::Buffered => Ctx::States(c.axiom_states().to_vec()),
                        }
                    }
                };
                match ctx {
                    Ctx::Skip => {
                        // A live context calls nothing on this child:
                        // deleted subtree.
                        self.skip_depth = 1;
                        return Ok(Feed::SkipOpen);
                    }
                    Ctx::States(states) if states.is_empty() => {
                        // Deleted subtree (or a constant axiom): no
                        // state ever inspects it — skip without
                        // building it, and without tokenizing it when
                        // the source can fast-forward.
                        match self.frames.last_mut() {
                            Some(parent) => match &mut parent.kind {
                                FKind::Buffered { child_results } => child_results.push(Vec::new()),
                                FKind::Live(_) => {
                                    unreachable!("live parents skip without deriving states")
                                }
                            },
                            None => self.root_skipped = true,
                        }
                        self.skip_depth = 1;
                        return Ok(Feed::SkipOpen);
                    }
                    Ctx::Call(q) => {
                        let dense = c.dense_sym(sym);
                        // Undefined as soon as the live state lacks a rule.
                        let Some((start, end)) = c.rule_range(q, dense) else {
                            return self.reject();
                        };
                        let kind = if live_shape(c, start, end) {
                            let mut lf = LiveFrame::new(start, end);
                            live_step(c, &mut lf, sink, &mut self.stats)?;
                            FKind::Live(lf)
                        } else {
                            self.buffered += 1;
                            self.stats.peak_buffered_frames =
                                self.stats.peak_buffered_frames.max(self.buffered);
                            FKind::Buffered {
                                child_results: Vec::new(),
                            }
                        };
                        self.frames.push(SFrame {
                            sym: dense,
                            states: vec![q],
                            kind,
                        });
                    }
                    Ctx::States(states) => {
                        let dense = c.dense_sym(sym);
                        // Undefined as soon as any live state lacks a rule.
                        if states.iter().any(|&q| c.rule_range(q, dense).is_none()) {
                            return self.reject();
                        }
                        self.buffered += 1;
                        self.stats.peak_buffered_frames =
                            self.stats.peak_buffered_frames.max(self.buffered);
                        self.frames.push(SFrame {
                            sym: dense,
                            states,
                            kind: FKind::Buffered {
                                child_results: Vec::new(),
                            },
                        });
                    }
                }
            }
            TreeEvent::Close => {
                let Some(frame) = self.frames.pop() else {
                    return self.reject(); // unbalanced close
                };
                match frame.kind {
                    FKind::Live(lf) => {
                        if lf.pending.is_some() || lf.pos != lf.end {
                            return self.reject(); // call to a child the node does not have
                        }
                        debug_assert!(lf.opens.is_empty());
                        resume_after_child(
                            c,
                            &mut self.frames,
                            &mut self.top,
                            sink,
                            &mut self.stats,
                            &mut self.done,
                        )?;
                    }
                    FKind::Buffered { child_results } => {
                        self.buffered -= 1;
                        let mut results: Vec<(u16, Tree)> = Vec::with_capacity(frame.states.len());
                        for &q in &frame.states {
                            let (start, end) = c
                                .rule_range(q, frame.sym)
                                .expect("checked when the node opened");
                            let Some(v) = self.exec_range(c, start, end, &|q2, child| {
                                lookup(child_results.get(child)?, q2)
                            }) else {
                                return self.reject();
                            };
                            results.push((q, v));
                        }
                        // Where does the materialized result go?
                        let to_live_parent = match self.frames.last_mut() {
                            Some(parent) => match &mut parent.kind {
                                FKind::Buffered { child_results } => {
                                    child_results.push(std::mem::take(&mut results));
                                    false
                                }
                                FKind::Live(_) => true,
                            },
                            None => match &self.top {
                                Top::Live(_) => true,
                                Top::Buffered => {
                                    // Root closed: splice the per-state
                                    // results into the axiom.
                                    let (ax_start, ax_end) = c.axiom_range();
                                    let Some(out) =
                                        self.exec_range(c, ax_start, ax_end, &|q, child| {
                                            if child == 0 {
                                                lookup(&results, q)
                                            } else {
                                                None
                                            }
                                        })
                                    else {
                                        return self.reject();
                                    };
                                    flush_tree(sink, &mut self.stats, &out, false)?;
                                    self.done = true;
                                    false
                                }
                            },
                        };
                        if to_live_parent {
                            // This frame was the pending call child of
                            // a live context: flush its single result
                            // and resume the coroutine.
                            let (_, t) = &results[0];
                            flush_tree(sink, &mut self.stats, t, true)?;
                            resume_after_child(
                                c,
                                &mut self.frames,
                                &mut self.top,
                                sink,
                                &mut self.stats,
                                &mut self.done,
                            )?;
                        }
                    }
                }
            }
        }
        Ok(if self.done { Feed::Done } else { Feed::More })
    }

    /// The driver fast-forwarded its source past the subtree whose
    /// `Open` just returned [`Feed::SkipOpen`] (descendants *and* the
    /// matching `Close` consumed at the source).
    fn fast_forwarded(&mut self) {
        debug_assert_eq!(self.skip_depth, 1);
        self.skip_depth = 0;
    }

    /// Ends the input stream: emits a constant axiom if the whole input
    /// was deleted, and delivers the final verdict — `Some(stats)` on a
    /// completed run, `None` if the input was rejected or incomplete.
    fn finish<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        sink: &mut S,
    ) -> io::Result<Option<EmitStats>> {
        if self.rejected {
            return Ok(None);
        }
        if self.done {
            return Ok(Some(self.stats));
        }
        if self.root_skipped && self.skip_depth == 0 {
            // The whole input was deleted: the axiom calls no state.
            let (ax_start, ax_end) = c.axiom_range();
            if let Some(t) = self.exec_range(c, ax_start, ax_end, &|_, _| None) {
                flush_tree(sink, &mut self.stats, &t, false)?;
                self.done = true;
                return Ok(Some(self.stats));
            }
        }
        self.rejected = true;
        Ok(None) // empty or unterminated stream
    }
}

/// Reusable streaming evaluator of one compiled dtop; create once per
/// worker thread.
#[derive(Default)]
pub struct StreamEvaluator(StreamRun);

impl StreamEvaluator {
    pub fn new() -> StreamEvaluator {
        StreamEvaluator::default()
    }

    /// Evaluates `⟦M⟧` over a pre-order event stream into a tree; `None`
    /// when the input is outside the domain **or** the stream is not
    /// exactly one well-nested tree. Deleted subtrees take the source's
    /// skip fast path.
    pub fn eval_source(
        &mut self,
        c: &CompiledDtop,
        source: &mut impl TreeEventSource,
    ) -> Option<Tree> {
        let mut sink = TreeCollector::new();
        match self.eval_streaming(c, source, &mut sink) {
            Ok(Some(_)) => sink.into_tree(),
            _ => None,
        }
    }

    /// Event-driven evaluation: output flows to `sink` as [`TreeEvent`]s,
    /// with `Open`s emitted the moment their prefix is committed.
    ///
    /// Rule bodies whose calls visit strictly increasing input children
    /// (order-preserving, copy-free regions) execute as coroutines: the
    /// output prefix streams immediately, execution parks at each call
    /// until that child's own output has streamed, then resumes.
    /// Permuting/copying regions — and nodes processed by more than one
    /// state — fall back to the buffered evaluation and flush their
    /// materialized result as one subtree. On a fully order-preserving
    /// run nothing is buffered: output state is O(depth).
    ///
    /// Returns `Ok(Some(stats))` on success, `Ok(None)` when the input is
    /// outside the domain or not exactly one well-nested tree (the sink
    /// may have received a partial prefix by then — inherent to
    /// streaming), and `Err` only when the sink fails.
    pub fn eval_streaming<S: OutputSink + ?Sized>(
        &mut self,
        c: &CompiledDtop,
        source: &mut impl TreeEventSource,
        sink: &mut S,
    ) -> io::Result<Option<EmitStats>> {
        let run = &mut self.0;
        run.start(c, sink)?;
        while let Some(event) = source.next_event() {
            match run.feed(c, event, sink)? {
                Feed::Rejected => return Ok(None),
                Feed::SkipOpen => {
                    if source.skip_subtree() {
                        run.fast_forwarded();
                    }
                }
                Feed::More | Feed::Done => {}
            }
        }
        run.finish(c, sink)
    }

    /// Convenience: stream a materialized tree (used by benches and the
    /// differential tests to exercise exactly the streaming code path).
    pub fn eval_tree(&mut self, c: &CompiledDtop, input: &Tree) -> Option<Tree> {
        self.eval_source(c, &mut IterEvents(input.events()))
    }
}

impl StreamRun {
    /// Executes the instruction range `[start, end)` with `resolve`
    /// supplying the value of every `⟨q, x_child⟩` call. Iterative; reuses
    /// scratch stacks.
    fn exec_range(
        &mut self,
        c: &CompiledDtop,
        start: u32,
        end: u32,
        resolve: &dyn Fn(u16, usize) -> Option<Tree>,
    ) -> Option<Tree> {
        self.exec_vals.clear();
        self.exec_frames.clear();
        for instr in &c.code()[start as usize..end as usize] {
            match *instr {
                Instr::Out { sym, arity: 0 } => self.exec_vals.push(Tree::leaf(sym)),
                Instr::Out { sym, arity } => {
                    self.exec_frames
                        .push((sym, self.exec_vals.len() as u32, arity))
                }
                Instr::Call { q, child } => self.exec_vals.push(resolve(q, usize::from(child))?),
            }
            while let Some(&(sym, base, arity)) = self.exec_frames.last() {
                if self.exec_vals.len() as u32 != base + arity {
                    break;
                }
                self.exec_frames.pop();
                let children = self.exec_vals.split_off(base as usize);
                self.exec_vals.push(Tree::new(sym, children));
            }
        }
        debug_assert!(self.exec_frames.is_empty());
        debug_assert_eq!(self.exec_vals.len(), 1);
        self.exec_vals.pop()
    }
}

fn lookup(results: &[(u16, Tree)], q: u16) -> Option<Tree> {
    results
        .binary_search_by_key(&q, |&(s, _)| s)
        .ok()
        .map(|i| results[i].1.clone())
}

/// The sentinel every out-of-vocabulary name maps to under bounded
/// symbol resolution ([`XmlRankedEvents::bounded`]); its control
/// character keeps it apart from every declarable symbol.
pub fn unknown_symbol() -> Symbol {
    Symbol::new("\u{1}xtt:unknown")
}

/// Builds a ranked tree via [`XmlRankedEvents::bounded`], so untrusted
/// document text never grows the interner.
pub fn ranked_tree_from_xml_bounded(xml: &str) -> Result<Tree, XmlError> {
    XmlRankedEvents::bounded(xml).collect_tree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::engine::{tree_to_xml, DocFormat, FormatSink};
    use xtt_transducer::{eval as walk_eval, examples};
    use xtt_trees::{gen::enumerate_trees, parse_tree};

    /// Streams an XML document through `c` (bounded symbols): `Err` is a
    /// tokenizer error, `Ok(None)` an out-of-domain document.
    fn eval_xml(
        ev: &mut StreamEvaluator,
        c: &CompiledDtop,
        xml: &str,
    ) -> Result<Option<Tree>, XmlError> {
        let mut source = XmlRankedEvents::bounded(xml);
        let result = ev.eval_source(c, &mut source);
        source.take_error().map_or(Ok(result), Err)
    }

    fn eval(ev: &mut StreamEvaluator, c: &CompiledDtop, events: Vec<TreeEvent>) -> Option<Tree> {
        ev.eval_source(c, &mut IterEvents(events.into_iter()))
    }

    /// Renders `t` through the format's strict sink (`None` = the output
    /// has no form in the format).
    fn render(t: &Tree, format: &DocFormat) -> Option<String> {
        let mut out = Vec::new();
        FormatSink::new(format, &mut out).tree(t).ok()?;
        String::from_utf8(out).ok()
    }

    #[test]
    fn streaming_agrees_with_tree_walk() {
        for fix in [
            examples::flip(),
            examples::library(),
            examples::monadic_to_binary(),
            examples::flip_k(2),
        ] {
            let c = compile(&fix.dtop).unwrap();
            let mut ev = StreamEvaluator::new();
            for t in enumerate_trees(fix.dtop.input(), 120, 9) {
                assert_eq!(ev.eval_tree(&c, &t), walk_eval(&fix.dtop, &t), "on {t}");
            }
        }
    }

    #[test]
    fn deleted_subtrees_are_skipped_not_inspected() {
        // (q4, a) deletes its first subtree; streaming must accept garbage
        // there exactly like the tree-walk evaluator does.
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let t = parse_tree("root(a(b(zzz(#,#),#),#),#)").unwrap();
        assert_eq!(
            ev.eval_tree(&c, &t).unwrap().to_string(),
            walk_eval(&fix.dtop, &t).unwrap().to_string()
        );
    }

    #[test]
    fn constant_axiom_streams() {
        let c = compile(&examples::constant_m1().dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let t = parse_tree("f(a,f(a,a))").unwrap();
        assert_eq!(ev.eval_tree(&c, &t).unwrap().to_string(), "b");
    }

    #[test]
    fn malformed_streams_are_undefined() {
        let c = compile(&examples::flip().dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        use TreeEvent::*;
        let root = Symbol::new("root");
        let hash = Symbol::new("#");
        assert_eq!(eval(&mut ev, &c, vec![]), None);
        assert_eq!(eval(&mut ev, &c, vec![Open(root)]), None);
        assert_eq!(eval(&mut ev, &c, vec![Close]), None);
        // trailing events after the root closed: not exactly one tree
        let mut two_roots: Vec<TreeEvent> = parse_tree("root(#,#)").unwrap().events().collect();
        let base = two_roots.clone();
        two_roots.extend([Open(hash), Close]);
        assert_eq!(
            eval(&mut ev, &c, base),
            Some(parse_tree("root(#,#)").unwrap())
        );
        assert_eq!(eval(&mut ev, &c, two_roots), None);
    }

    #[test]
    fn bounded_adapter_never_grows_the_interner() {
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        unknown_symbol(); // pre-intern the sentinel itself
                          // Garbage pcdata sits in the first child of an `a` node, which
                          // (q4, a) deletes; the walk evaluator accepts it, and so must the
                          // bounded streaming path — via the sentinel, without interning.
        let xml = "<root><a>never-interned-token-1<a># #</a></a><b># #</b></root>";
        let out = eval_xml(&mut ev, &c, xml).unwrap().unwrap();
        assert_eq!(out.to_string(), "root(b(#,#),a(#,a(#,#)))");
        assert_eq!(Symbol::lookup("never-interned-token-1"), None);
        // same through the non-streaming bounded tree builder
        let t = ranked_tree_from_xml_bounded(xml).unwrap();
        assert_eq!(
            xtt_transducer::eval(&fix.dtop, &t).unwrap().to_string(),
            "root(b(#,#),a(#,a(#,#)))"
        );
        assert_eq!(Symbol::lookup("never-interned-token-1"), None);
    }

    #[test]
    fn xml_roundtrip_through_engine() {
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        // fc/ns-encoded lists in XML form: '#' leaves are text tokens.
        let xml = "<root><a># <a># #</a></a><b># <b># #</b></b></root>";
        let t = XmlRankedEvents::new(xml).collect_tree().unwrap();
        assert_eq!(t.to_string(), "root(a(#,a(#,#)),b(#,b(#,#)))");
        let streamed = eval_xml(&mut ev, &c, xml).unwrap().unwrap();
        assert_eq!(streamed, walk_eval(&fix.dtop, &t).unwrap());
        // and the output serializes back to parseable XML
        let xml_out = tree_to_xml(&streamed);
        assert_eq!(
            XmlRankedEvents::new(&xml_out).collect_tree().unwrap(),
            streamed
        );
    }

    #[test]
    fn deleted_subtrees_are_not_tokenized() {
        // (q4, a) deletes the first subtree of every `a` node: the
        // streaming XML path must fast-forward the raw reader past it
        // instead of tokenizing it — observable via the skip counter and
        // via junk that only a tokenizer would choke on politely
        // (attributes, comments) sailing through untokenized.
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let xml = "<root><a><junk depth=\"3\"><x><!-- never parsed --></x></junk><a># #</a></a><b># #</b></root>";
        let mut source = XmlRankedEvents::bounded(xml);
        let out = ev.eval_source(&c, &mut source).unwrap();
        assert_eq!(out.to_string(), "root(b(#,#),a(#,a(#,#)))");
        assert!(source.skipped_subtrees() >= 1, "fast path must engage");
        assert_eq!(Symbol::lookup("junk"), None, "skipped names never interned");
        // The guarded path fast-forwards too (guard ∅-skip ≡ empty state
        // set), with identical output.
        let guard = xtt_typecheck::domain_guard(&fix.dtop).unwrap();
        let mut source = GuardedSource::new(&guard, XmlRankedEvents::bounded(xml));
        let guarded = ev.eval_source(&c, &mut source).unwrap();
        assert!(source.take_violation().is_none());
        assert_eq!(guarded, out);
    }

    #[test]
    fn skip_fast_path_still_surfaces_structural_errors() {
        // Mismatched tags inside a *deleted* subtree are still XML
        // errors — the fast-forward enforces structure, exactly like the
        // event-counting path did.
        let fix = examples::flip();
        let c = compile(&fix.dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        let bad = "<root><a><junk><open></junk></a><b># #</b></root>";
        assert!(eval_xml(&mut ev, &c, bad).is_err());
    }

    #[test]
    fn attributes_map_into_the_ranked_encoding() {
        let xml = "<root a=\"1 2\" b=\"x\"><c k=\"v\"/></root>";
        let t = XmlRankedEvents::new(xml)
            .attributes(true)
            .collect_tree()
            .unwrap();
        assert_eq!(
            t.to_string(),
            "root(@attrs(@a(1,2),@b(x)),c(@attrs(@k(v))))"
        );
        // … and decodes back to attribute syntax.
        assert_eq!(render(&t, &DocFormat::XmlAttrs).as_deref(), Some(xml));
        // Plain serialization rightly refuses the @-slots.
        assert_eq!(render(&t, &DocFormat::Xml), None);
        // Without the option, attributes stay invisible (PR-5 behavior).
        assert_eq!(
            XmlRankedEvents::new(xml)
                .collect_tree()
                .unwrap()
                .to_string(),
            "root(c)"
        );
    }

    #[test]
    fn attr_values_escape_on_the_way_out() {
        let xml = "<r t=\"a&quot;b &amp; c\"/>";
        let t = XmlRankedEvents::new(xml)
            .attributes(true)
            .collect_tree()
            .unwrap();
        assert_eq!(
            render(&t, &DocFormat::XmlAttrs).as_deref(),
            Some("<r t=\"a&quot;b &amp; c\"/>")
        );
    }

    #[test]
    fn skip_drains_attribute_blocks() {
        let xml = "<root x=\"1\"><a k=\"aa bb\"><y/></a>tok</root>";
        let mut s = XmlRankedEvents::new(xml).attributes(true);
        let open_name = |s: &mut XmlRankedEvents| match s.next_event() {
            Some(TreeEvent::Open(sym)) => sym.name().to_owned(),
            other => panic!("expected an Open, got {other:?}"),
        };
        assert_eq!(open_name(&mut s), "root");
        // The queued `@attrs` block skips via a depth-balanced drain of
        // the queue (it spans several queued events, not one Close).
        assert_eq!(open_name(&mut s), "@attrs");
        assert!(s.skip_subtree());
        // Skipping the <a> element drops its own queued attribute block
        // along with the raw fast-forward.
        assert_eq!(open_name(&mut s), "a");
        assert!(s.skip_subtree());
        assert_eq!(open_name(&mut s), "tok");
        assert_eq!(s.next_event(), Some(TreeEvent::Close));
        assert_eq!(s.next_event(), Some(TreeEvent::Close));
        assert!(s.next_event().is_none());
        assert!(s.take_error().is_none());
        assert_eq!(s.skipped_subtrees(), 2);
    }

    #[test]
    fn xml_errors_surface() {
        let c = compile(&examples::flip().dtop).unwrap();
        let mut ev = StreamEvaluator::new();
        assert!(eval_xml(&mut ev, &c, "<root><a></root>").is_err());
        assert_eq!(eval_xml(&mut ev, &c, "<lone/>").unwrap(), None);
    }
}
