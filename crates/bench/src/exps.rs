//! The experiment drivers E1–E9, one per paper artifact (README,
//! "Experiments", names the section each reproduces). Each prints the
//! paper-vs-measured rows; `exp_all` runs every one.

use xtt_core::{characteristic_sample, rpni_dtop};
use xtt_transducer::{
    canonical_form, equivalent, eval, is_earliest, minimize, same_canonical, state_io_paths,
    to_earliest,
};
use xtt_trees::Tree;

use crate::families;
use crate::fcns_index::{fcns_residual_index, fcns_sample};
use crate::{dag_row, learn_roundtrip, print_table, time};

/// E1 — τflip (paper §1 + Example 7).
pub fn run_e1() {
    println!("\n== E1: τflip — learn the paper's flagship example ==");
    let target = families::flip_target();
    let row = learn_roundtrip(0, &target);
    print_table(
        &["quantity", "paper", "measured"],
        &[
            vec![
                "states of min(τ)".into(),
                "4".into(),
                row.states.to_string(),
            ],
            vec!["rules".into(), "6".into(), row.rules.to_string()],
            vec![
                "characteristic sample (pairs)".into(),
                "4".into(),
                row.sample_pairs.to_string(),
            ],
            vec![
                "identified min(τ)?".into(),
                "yes (Thm 38)".into(),
                if row.identified { "yes" } else { "NO" }.into(),
            ],
        ],
    );
    println!("\nio-paths of the 4 states (paper §1 lists the same four):");
    for (i, p) in state_io_paths(&target).iter().enumerate() {
        println!("  q{i}: {p}");
    }
    println!(
        "\nlearning time: {} µs on a {}-node sample",
        row.learn_micros, row.sample_nodes
    );
}

/// E2 — the §10 library transformation.
pub fn run_e2() {
    println!("\n== E2: §10 library transformation (swap, delete, copy) ==");
    let target = families::library_target();
    let row = learn_roundtrip(0, &target);
    print_table(
        &["quantity", "paper", "measured"],
        &[
            vec![
                "states of min(τ)".into(),
                "14".into(),
                row.states.to_string(),
            ],
            vec!["rules".into(), "17 listed".into(), row.rules.to_string()],
            vec![
                "sample pairs".into(),
                "4 (s0..s3)".into(),
                row.sample_pairs.to_string(),
            ],
            vec![
                "identified min(τ)?".into(),
                "yes".into(),
                if row.identified { "yes" } else { "NO" }.into(),
            ],
        ],
    );
    println!(
        "\nnote: the paper's rule table applies state qT to both B-nodes and\n\
         T-nodes, which a deterministic transducer cannot do; splitting it\n\
         (qTB/qTT) gives the measured 15 states. Our generic sample generator\n\
         also needs more pairs than the 4 hand-crafted ones because pcdata is\n\
         modeled with two values (see `xtt_transducer::examples::library`)."
    );
    let s2 = xtt_transducer::examples::library_input(2);
    println!("\nτ(s2) = {}", eval(&target.dtop, &s2).unwrap());
}

/// E3 — xmlflip: DTD encoding vs fc/ns encoding.
pub fn run_e3() {
    println!("\n== E3: xmlflip over DTD encodings (positive) vs fc/ns (negative) ==");
    let target = families::xmlflip_target();
    let row = learn_roundtrip(0, &target);
    print_table(
        &["quantity", "paper", "measured (paper-style enc.)"],
        &[
            vec!["states".into(), "12".into(), row.states.to_string()],
            vec!["rules".into(), "16".into(), row.rules.to_string()],
            vec![
                "sample pairs".into(),
                "4".into(),
                row.sample_pairs.to_string(),
            ],
            vec![
                "identified?".into(),
                "yes".into(),
                if row.identified { "yes" } else { "NO" }.into(),
            ],
        ],
    );
    let pc = families::xmlflip_target_pc();
    let row_pc = learn_roundtrip(0, &pc);
    println!(
        "\npath-closed encoding variant: {} states, {} rules, {} sample pairs, identified: {}",
        row_pc.states, row_pc.rules, row_pc.sample_pairs, row_pc.identified
    );
    println!(
        "(the measured state counts exceed the paper's 12 because compatibility\n\
         condition (C0) splits list-copier states by domain residual; the paper\n\
         does not list its 12-state transducer)"
    );

    println!("\nfc/ns side: distinct residuals among p_0..p_n (must grow unboundedly):");
    let sample = fcns_sample(9, 3);
    let mut rows = Vec::new();
    for depth in [1usize, 2, 3, 4, 5, 6] {
        let index = fcns_residual_index(&sample, depth);
        rows.push(vec![
            format!("p_0..p_{depth}"),
            (depth + 1).to_string(),
            index.to_string(),
        ]);
    }
    print_table(
        &["io-path family", "distinct (theory)", "distinct (measured)"],
        &rows,
    );
    println!("⇒ no finite-state dtop realizes xmlflip over fc/ns encodings (Thm 28).");
}

/// E4 — characteristic-sample size vs transducer size (Prop. 34).
pub fn run_e4() {
    println!("\n== E4: characteristic-sample size scaling (Proposition 34) ==");
    let mut rows = Vec::new();
    for k in 1..=8 {
        let target = families::flip_k_target(k);
        let row = learn_roundtrip(k, &target);
        rows.push(vec![
            format!("flip_{k}"),
            row.states.to_string(),
            row.rules.to_string(),
            row.transducer_size.to_string(),
            row.sample_pairs.to_string(),
            row.sample_nodes.to_string(),
            row.identified.to_string(),
        ]);
    }
    for n in [2usize, 4, 8, 12, 16] {
        let target = families::chain_target(n);
        let row = learn_roundtrip(n, &target);
        rows.push(vec![
            format!("chain_{n}"),
            row.states.to_string(),
            row.rules.to_string(),
            row.transducer_size.to_string(),
            row.sample_pairs.to_string(),
            row.sample_nodes.to_string(),
            row.identified.to_string(),
        ]);
    }
    print_table(
        &[
            "family",
            "states",
            "rules",
            "|M|",
            "pairs",
            "nodes",
            "identified",
        ],
        &rows,
    );
    println!("shape check: pairs and nodes grow polynomially (≈ linearly) in |M|.");
}

/// E5 — learning time vs sample size (Theorem 38).
pub fn run_e5() {
    println!("\n== E5: learning-time scaling (Theorem 38) ==");
    let mut rows = Vec::new();
    for k in 1..=8 {
        let target = families::flip_k_target(k);
        let row = learn_roundtrip(k, &target);
        rows.push(vec![
            format!("flip_{k}"),
            row.transducer_size.to_string(),
            row.sample_nodes.to_string(),
            row.gen_micros.to_string(),
            row.learn_micros.to_string(),
        ]);
    }
    for n in [4usize, 8, 16, 24, 32] {
        let target = families::chain_target(n);
        let row = learn_roundtrip(n, &target);
        rows.push(vec![
            format!("chain_{n}"),
            row.transducer_size.to_string(),
            row.sample_nodes.to_string(),
            row.gen_micros.to_string(),
            row.learn_micros.to_string(),
        ]);
    }
    print_table(
        &["family", "|M|", "|S| (nodes)", "gen (µs)", "learn (µs)"],
        &rows,
    );
    println!("shape check: learn time stays polynomial (paper bound O(|M|²·|F|·K·|S|)).");
}

/// E6 — DAG representation of exponential outputs (§1 remark).
pub fn run_e6() {
    println!("\n== E6: outputs as minimal DAGs (monadic input → full binary output) ==");
    let mut rows = Vec::new();
    for height in [4u32, 8, 12, 16, 20] {
        let r = dag_row(height);
        rows.push(vec![
            r.height.to_string(),
            r.input_size.to_string(),
            r.output_tree_size.to_string(),
            r.output_dag_size.to_string(),
            format!("{:.0}", r.compression),
            r.eval_micros.to_string(),
            r.dag_micros.to_string(),
        ]);
    }
    print_table(
        &[
            "height n",
            "|input|",
            "|output| (tree)",
            "|output| (DAG)",
            "ratio",
            "eval µs",
            "dag µs",
        ],
        &rows,
    );
    println!("shape check: tree size 2^(n+1)-1, DAG size n+1 — exponential vs linear.");
}

/// E7 — uniqueness of the canonical form (Example 6, Theorem 28).
pub fn run_e7() {
    println!("\n== E7: unique minimal earliest compatible transducer (Example 6) ==");
    use xtt_transducer::examples as fx;
    let variants = [
        ("M0 (violates C0)", fx::example6_m0()),
        ("M1 (minimal compatible)", fx::example6_m1()),
        ("M2 (violates C1)", fx::example6_m2()),
        ("M3 (violates C2)", fx::example6_m3()),
    ];
    let canon: Vec<_> = variants
        .iter()
        .map(|(name, f)| {
            (
                *name,
                f.dtop.state_count(),
                canonical_form(&f.dtop, Some(&f.domain)).unwrap(),
            )
        })
        .collect();
    let reference = &canon[1].2;
    let mut rows = Vec::new();
    for (name, states, c) in &canon {
        rows.push(vec![
            name.to_string(),
            states.to_string(),
            c.dtop.state_count().to_string(),
            same_canonical(c, reference).to_string(),
        ]);
    }
    print_table(
        &["variant", "states before", "states after", "equals min(τ)"],
        &rows,
    );
    println!(
        "axiom of min(τ): {}   (the deleted first subtree is produced here\n\
         and checked only by the domain automaton)",
        reference.dtop.show_rhs(reference.dtop.axiom(), true)
    );
}

/// E8 — earliest normal form and equivalence (Examples 1–2, \[EMS09\]).
pub fn run_e8() {
    println!("\n== E8: earliest normal form + equivalence decision ==");
    use xtt_transducer::examples as fx;
    let m1 = fx::constant_m1();
    let m2 = fx::constant_m2();
    let m3 = fx::constant_m3();
    let mut rows = Vec::new();
    for (name, fix) in [("M1", &m1), ("M2", &m2), ("M3", &m3)] {
        let canon = to_earliest(&fix.dtop, Some(&fix.domain)).unwrap();
        let early = is_earliest(&canon).unwrap();
        rows.push(vec![
            name.to_string(),
            fix.dtop.state_count().to_string(),
            canon.dtop.state_count().to_string(),
            early.to_string(),
        ]);
    }
    print_table(
        &[
            "transducer",
            "states before",
            "states after earliest",
            "is earliest",
        ],
        &rows,
    );
    println!(
        "equivalence: M1≡M2: {}, M2≡M3: {}, M1≢(flip): decided structurally via canonical forms",
        equivalent(&m1.dtop, Some(&m1.domain), &m2.dtop, Some(&m2.domain)).unwrap(),
        equivalent(&m2.dtop, Some(&m2.domain), &m3.dtop, Some(&m3.domain)).unwrap(),
    );

    // timing on a scalable family
    let mut rows = Vec::new();
    for k in [2usize, 4, 6, 8] {
        let (dtop, domain) = families::raw_flip_k(k);
        let (canon, t_early) = time(|| to_earliest(&dtop, Some(&domain)).unwrap());
        let (_, t_min) = time(|| minimize(&canon).unwrap());
        rows.push(vec![
            format!("flip_{k}"),
            dtop.size().to_string(),
            t_early.as_micros().to_string(),
            t_min.as_micros().to_string(),
        ]);
    }
    print_table(&["family", "|M|", "earliest µs", "minimize µs"], &rows);
}

/// E9 — minimal subsequential string transducers (Related Work remark).
pub fn run_e9() {
    println!("\n== E9: string transducers over monadic trees ==");
    use xtt_core::strings::{sequential_to_dtop, string_characteristic_sample, StringAlphabet};
    let input = StringAlphabet::new(&['a', 'b']);
    let output = StringAlphabet::new(&['x', 'y', 'z']);
    let delta = vec![
        ((0, 'a'), (0, "x".to_owned())),
        ((0, 'b'), (1, "y".to_owned())),
        ((1, 'a'), (1, "z".to_owned())),
        ((1, 'b'), (1, "y".to_owned())),
    ];
    let target = sequential_to_dtop(
        &input,
        &output,
        2,
        &delta,
        &[(0, String::new()), (1, String::new())],
    )
    .unwrap();
    let pairs = string_characteristic_sample(&target, &input, &output).unwrap();
    println!("characteristic string sample ({} pairs):", pairs.len());
    for (s, t) in pairs.iter().take(8) {
        println!("  {s:?} -> {t:?}");
    }
    let sample = characteristic_sample(&target).unwrap();
    let learned = rpni_dtop(&sample, &target.domain, target.dtop.output()).unwrap();
    let got = canonical_form(&learned.dtop, Some(&target.domain)).unwrap();
    print_table(
        &["quantity", "expected", "measured"],
        &[
            vec![
                "states (minimal subsequential)".into(),
                "2".into(),
                learned.dtop.state_count().to_string(),
            ],
            vec![
                "identified?".into(),
                "yes".into(),
                same_canonical(&target, &got).to_string(),
            ],
        ],
    );
}

/// Extra shape check used by E1/E3: evaluation output sanity.
pub fn flip_eval_demo() -> Tree {
    let fix = xtt_transducer::examples::flip();
    eval(&fix.dtop, &xtt_transducer::examples::flip_input(2, 2)).unwrap()
}

/// Runs every experiment.
pub fn run_all() {
    run_e1();
    run_e2();
    run_e3();
    run_e4();
    run_e5();
    run_e6();
    run_e7();
    run_e8();
    run_e9();
    let _ = crate::engine_exp::run_e10();
    let _ = crate::typecheck_exp::run_e11();
    let _ = crate::unranked_exp::run_e12();
    let rows = crate::stream_exp::run_e13(&crate::stream_exp::stream_workloads(), 3);
    crate::stream_exp::print_e13(&rows);
}

#[cfg(test)]
mod tests {
    /// The experiment drivers must not panic (they are exercised fully by
    /// `exp_all`; here we run the cheap ones).
    #[test]
    fn cheap_experiments_run() {
        super::run_e1();
        super::run_e6();
        super::run_e7();
        super::run_e8();
    }
}
