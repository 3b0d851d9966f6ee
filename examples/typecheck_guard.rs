//! Typechecking end to end: compiled domain guards, fail-fast guarded
//! evaluation with violation paths, and output typechecking with
//! counterexamples.
//!
//! ```console
//! $ cargo run --example typecheck_guard
//! ```

use xtt::prelude::*;

fn main() {
    let fix = xtt::transducer::examples::flip();

    // 1. Every transducer carries a guard automaton: dom(τ), extracted by
    //    the subset construction and compiled to dense jump tables.
    let guard = domain_guard(&fix.dtop).expect("guard construction");
    println!(
        "flip's domain guard: {} states over {} symbols",
        guard.state_count(),
        guard.alphabet().len()
    );

    // 2. Guarded evaluation: out-of-domain documents fail at the *first
    //    violating node*, with a typed diagnostic instead of a bare None.
    let engine = Engine::new(EngineOptions {
        validate: true,
        ..EngineOptions::default()
    });
    let ok = engine.transform(&fix.dtop, "root(a(#,#),b(#,#))").unwrap();
    println!("in-domain: root(a(#,#),b(#,#)) -> {ok}");
    let err = engine
        .transform(&fix.dtop, "root(a(#,b(#,#)),b(#,#))")
        .unwrap_err();
    println!("out-of-domain: {err}");

    // 3. The streaming guard consumes strictly fewer events than the
    //    document contains: rejection costs a prefix, not a parse.
    let bad = parse_tree("root(a(#,b(#,#)),b(#,b(#,b(#,#))))").unwrap();
    let mut run = guard.run();
    let violation = bad
        .events()
        .try_for_each(|event| run.feed(event))
        .expect_err("out of domain");
    println!(
        "streaming rejection consumed {} of {} events ({violation})",
        run.events_consumed(),
        2 * bad.size(),
    );

    // 4. Output typechecking: dom(τ) ⊆ τ⁻¹(L(S_out))? The correct output
    //    schema passes; demanding the *input* shape yields a concrete
    //    counterexample.
    let correct = parse_dtta(
        "dtta (initial s)\n\
         s(root(x1,x2)) -> root(<bl,x1>,<al,x2>)\n\
         bl(b(x1,x2)) -> b(<nil,x1>,<bl,x2>)\n\
         bl(#) -> #\n\
         al(a(x1,x2)) -> a(<nil,x1>,<al,x2>)\n\
         al(#) -> #\n\
         nil(#) -> #\n",
    )
    .unwrap();
    assert!(output_typecheck(&fix.dtop, Some(&fix.domain), &correct).is_well_typed());
    println!("flip typechecks against root(b-list, a-list)");

    let wrong = parse_dtta(
        &correct
            .to_string()
            .replace("root(<bl,x1>,<al,x2>)", "root(<al,x1>,<bl,x2>)"),
    )
    .unwrap();
    match output_typecheck(&fix.dtop, Some(&fix.domain), &wrong) {
        TypecheckVerdict::Counterexample { input, output } => {
            println!("against root(a-list, b-list): counterexample {input} -> {output}");
        }
        TypecheckVerdict::WellTyped => unreachable!("flip permutes the lists"),
    }
}
