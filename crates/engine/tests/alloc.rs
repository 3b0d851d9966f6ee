//! The streaming pass allocates nothing per node: `stream` mode runs each
//! document through [`Engine::run_doc`] at `n` and at `10n` nodes and
//! counts the heap allocations of each call. Per-call set-up (the
//! worker, the source, the sink) costs the same at both sizes, and the
//! run-wide stacks double their capacity a few more times on the larger
//! document; everything else would grow with the node count.
//!
//! Its own test binary, because it installs a counting global
//! allocator. The count is per thread, so the harness's other test
//! threads do not disturb it. Documents are entity-free: decoding an
//! entity reference builds an owned string in the tokenizer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::Arc;

use xtt_engine::{DocFormat, Engine, EvalMode, Request};
use xtt_transducer::{parse_dtop, Dtop};
use xtt_unranked::XmlCodec;
use xtt_xml::{Dtd, Encoding, PcDataMode};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's allocations after its locals are gone are
    // not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter
// is a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A writer that keeps only the byte count, so the output allocates
/// nothing either.
struct Discard(u64);

impl io::Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The most allocations the `10n` document may make beyond the `n` one.
const SLACK: u64 = 100;

/// One case: a transducer, a format, and documents of a chosen size.
struct Case {
    name: &'static str,
    dtop: Dtop,
    format: DocFormat,
    validate: bool,
    doc: fn(usize) -> String,
}

impl Case {
    /// Allocations of one `stream`-mode `run_doc` on `doc`; checks that
    /// the document is accepted and that its output is `tree` mode's.
    fn allocations(&self, engine: &Engine, doc: &str) -> u64 {
        let (machine, guard) = engine.resolve(&self.dtop, self.validate).unwrap();
        let run = |mode, out: &mut dyn io::Write| {
            let req = Request::new(&machine, guard.as_deref(), &self.format, mode);
            engine.run_doc(doc, out, req)
        };
        let mut streamed = Vec::new();
        run(EvalMode::Streaming, &mut streamed).unwrap_or_else(|e| panic!("{}: {e}", self.name));
        let mut tree = Vec::new();
        run(EvalMode::Compiled, &mut tree).unwrap();
        assert_eq!(streamed, tree, "{}: stream and tree mode differ", self.name);

        let mut out = Discard(0);
        let before = ALLOCATIONS.with(Cell::get);
        let outcome = run(EvalMode::Streaming, &mut out).unwrap();
        let made = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(outcome.bytes_written, streamed.len() as u64);
        made
    }

    fn check(&self, n: usize) {
        let engine = Engine::default();
        let small = self.allocations(&engine, &(self.doc)(n));
        let large = self.allocations(&engine, &(self.doc)(10 * n));
        assert!(
            large <= small + SLACK,
            "{}: {small} allocations at n = {n}, {large} at 10n",
            self.name
        );
    }
}

/// The fc/ns records of the bulk benchmark, simplified: every kept kind
/// is copied, `note` is deleted with its content.
fn records_dtop() -> Dtop {
    let mut rules = String::from("ax = <q0,x0>\nq0(records(x1,x2)) -> records(<q,x1>,<q,x2>)\n");
    for kind in ["record", "id", "name", "body", "p", "em", "pcdata"] {
        rules.push_str(&format!("q({kind}(x1,x2)) -> {kind}(<q,x1>,<q,x2>)\n"));
    }
    rules.push_str("q(note(x1,x2)) -> <q,x2>\nq(#) -> #\n");
    parse_dtop(&rules).unwrap()
}

fn records(n: usize) -> String {
    let mut doc = String::from("<records>");
    for r in 0..n {
        doc.push_str(&format!(
            "<record><id>{r}</id><name>tree node</name>\
             <note><p>deleted text</p></note>\
             <body><p>kept <em>text</em> here</p></body></record>"
        ));
    }
    doc.push_str("</records>");
    doc
}

fn fcns(validate: bool) -> Case {
    Case {
        name: if validate { "fcns+guard" } else { "fcns" },
        dtop: records_dtop(),
        format: DocFormat::parse("fcns").unwrap(),
        validate,
        doc: records,
    }
}

/// A ranked comb `c(#, c(#, …, c("a>b", #)))`: an order-preserving run
/// as deep as the document is long. The last leaf escapes on output.
fn comb_dtop() -> Dtop {
    parse_dtop(
        "ax = <q,x0>\n\
         q(c(x1,x2)) -> c(<q,x1>,<q,x2>)\n\
         q(#) -> #\n\
         q(\"a>b\") -> \"a>b\"",
    )
    .unwrap()
}

fn comb(n: usize) -> String {
    let mut doc = "<c># ".repeat(n - 1);
    doc.push_str("<c>a>b #");
    doc.push_str(&"</c>".repeat(n));
    doc
}

/// [`comb`] with an attribute on every element, surfaced as each
/// element's `@attrs` first child.
fn attr_comb_dtop() -> Dtop {
    parse_dtop(
        "ax = <q,x0>\n\
         q(c(x1,x2,x3)) -> c(<qa,x1>,<q,x2>,<q,x3>)\n\
         q(#) -> #\n\
         q(\"a>b\") -> \"a>b\"\n\
         qa(@attrs(x1)) -> @attrs(<qk,x1>)\n\
         qk(@k(x1,x2)) -> @k(<qv,x1>,<qv,x2>)\n\
         qv(v) -> v\n\
         qv(\"w\\\"\") -> \"w\\\"\"",
    )
    .unwrap()
}

fn attr_comb(n: usize) -> String {
    let mut doc = "<c k='v w\"'># ".repeat(n - 1);
    doc.push_str("<c k='v w\"'>a>b #");
    doc.push_str(&"</c>".repeat(n));
    doc
}

/// `root (a*)` through its DTD encoding: a cons chain as long as the
/// list, copied cell by cell.
fn list_dtop() -> Dtop {
    parse_dtop(
        "ax = <q,x0>\n\
         q(root(x1)) -> root(<q,x1>)\n\
         q(a*(x1,x2)) -> a*(<q,x1>,<q,x2>)\n\
         q(a) -> a\n\
         q(#) -> #",
    )
    .unwrap()
}

fn list(n: usize) -> String {
    format!("<root>{}</root>", "<a/>".repeat(n))
}

fn list_format() -> DocFormat {
    let dtd = Dtd::parse("<!ELEMENT root (a*) >\n<!ELEMENT a EMPTY >").unwrap();
    let enc = Arc::new(Encoding::new(dtd, PcDataMode::Abstract));
    DocFormat::Encoded(XmlCodec::dtd(enc))
}

#[test]
fn fcns_records_allocate_nothing_per_node() {
    fcns(false).check(1_000);
}

#[test]
fn guarded_fcns_records_allocate_nothing_per_node() {
    fcns(true).check(1_000);
}

#[test]
fn xml_comb_allocates_nothing_per_node() {
    Case {
        name: "xml",
        dtop: comb_dtop(),
        format: DocFormat::Xml,
        validate: false,
        doc: comb,
    }
    .check(1_000);
}

#[test]
fn xml_attrs_comb_allocates_nothing_per_node() {
    Case {
        name: "xml+attrs",
        dtop: attr_comb_dtop(),
        format: DocFormat::XmlAttrs,
        validate: false,
        doc: attr_comb,
    }
    .check(1_000);
}

#[test]
fn dtd_list_allocates_nothing_per_node() {
    Case {
        name: "dtd root (a*)",
        dtop: list_dtop(),
        format: list_format(),
        validate: false,
        doc: list,
    }
    .check(1_000);
}
