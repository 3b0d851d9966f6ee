//! The Section 10 library transformation, end to end, starting from real
//! XML text: swap author/title, delete the year, and prepend a summary
//! that copies every title — inferred from examples, then exported as an
//! XSLT-like stylesheet.
//!
//! Run with `cargo run --example library_catalog`.

use xtt::prelude::*;
use xtt::transducer::examples as fixtures;
use xtt::xml::to_xslt;

fn main() {
    // The catalog we will transform, as XML.
    let doc = parse_xml(
        "<LIBRARY>\
           <BOOK><AUTHOR>P</AUTHOR><TITLE>P'</TITLE><YEAR>P</YEAR></BOOK>\
           <BOOK><AUTHOR>P'</AUTHOR><TITLE>P</TITLE><YEAR>P</YEAR></BOOK>\
         </LIBRARY>",
    )
    .unwrap();
    println!("== input document ==\n{doc}\n");

    // The target transformation is the paper's library example; the
    // fixture works on DTD-encoded trees directly (ranked alphabet with
    // L, B*, B, A, T, Y, pcdata values P/P', and #).
    let fixture = fixtures::library();

    // 1. canonicalize and generate a characteristic sample
    let target = canonical_form(&fixture.dtop, None).unwrap();
    let sample = characteristic_sample(&target).unwrap();
    println!(
        "characteristic sample: {} pairs, {} total nodes",
        sample.len(),
        sample.total_size()
    );

    // 2. learn
    let learned = rpni_dtop(&sample, &target.domain, target.dtop.output()).unwrap();
    println!(
        "learned transducer: {} states, {} rules (paper reports 14 states; see experiment E2, exp_e2_library)\n",
        learned.dtop.state_count(),
        learned.dtop.rule_count()
    );
    println!("{}", learned.dtop);

    // 3. run the learned transducer on the encoded document
    let encoded = encode_library(&doc);
    let result = eval(&learned.dtop, &encoded).unwrap();
    println!("== transformed (encoded) ==\n{result}\n");

    // 4. export as an XSLT-like stylesheet
    println!("== as XSLT (modulo syntax, per the paper) ==");
    let xslt = to_xslt(&learned.dtop);
    for line in xslt.lines().take(24) {
        println!("{line}");
    }
    println!("  ... ({} lines total)", xslt.lines().count());
}

/// Encodes the XML catalog into the fixture's ranked alphabet:
/// `L(B*(B(A(P),T(P),Y(P)), B*(...)))` with pcdata values `P`/`P'`.
fn encode_library(doc: &UTree) -> Tree {
    let books = doc.children();
    let mut list = Tree::node("B*", vec![Tree::leaf_named("#"), Tree::leaf_named("#")]);
    for book in books.iter().rev() {
        let field = |i: usize| -> Tree {
            let elem = &book.children()[i];
            let value = match &elem.children()[0] {
                UTree::Text(s) => s.clone(),
                _ => panic!("expected text"),
            };
            let tag = match i {
                0 => "A",
                1 => "T",
                _ => "Y",
            };
            Tree::node(tag, vec![Tree::leaf_named(&value)])
        };
        let b = Tree::node("B", vec![field(0), field(1), field(2)]);
        list = Tree::node("B*", vec![b, list]);
    }
    Tree::node("L", vec![list])
}
