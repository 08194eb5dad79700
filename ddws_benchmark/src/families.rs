//! The fixed verification cells of the `explore`, `closure` and `oneshot`
//! workloads, and the compgen corpus of `oneshot` and `service`.
//!
//! The state-heavy relay chain is E13's family and the many-valuation
//! chain E14's; the bank-loan cells are the paper's running example
//! (Figure 1, Example 3.2) on its demonstration database, and the
//! request/response pair is E6's all-databases cell.

use ddws::scenarios::bank_loan;
use ddws_model::{Composition, CompositionBuilder, QueueKind, Semantics};
use ddws_relational::{Instance, Tuple};
use ddws_testkit::compgen::{self, CaseSpec};
use ddws_testkit::rng::XorShift;
use ddws_verifier::{DatabaseMode, Reduction, VerifyOptions};

/// The per-job state budget of compgen checks, one-shot and served alike.
/// Every case of the corpus decides within it (the largest needs ~127k
/// states summed over its valuations), so no check of the corpus ends
/// inconclusive.
pub const CASE_BUDGET: u64 = 200_000;

/// Seed of the compgen corpus. The corpus multiset is fixed and the
/// run's `--seed` only orders it (and draws the service's arrival times):
/// over 30 seeds, seed-drawn 2,000-case corpora moved the pass cost by
/// 20% (IQR/median of transitions explored), wider than any bound a
/// regression check could use.
const CORPUS_SEED: u64 = 0x0dd5_c0de;

/// Which composition a [`Cell`] builds.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// E13's relay chain: P0 emits its `m` tokens over a nested channel,
    /// P1 joins them with its `m` private rows into the arity-2 `seen2`
    /// and ships the extension downstream; `ring ≥ 2` adds a phase rotor
    /// and an audit rule on P1 (the rule-dense E10 shape).
    StateHeavy { m: usize, ring: usize },
    /// E14's chain with `pool` inert constants that widen the domain: one
    /// extra equal-cost valuation of the closure property each.
    ManyValuation { m: usize, pool: usize },
    /// The paper's bank-loan composition over its demonstration database.
    BankLoan,
    /// E6's request/response pair, checked over all databases.
    ReqResp,
}

/// One fixed verification cell with its pinned verdict.
#[derive(Clone, Debug)]
pub struct Cell {
    pub name: &'static str,
    pub family: Family,
    pub property: &'static str,
    pub threads: Option<usize>,
    pub valuation_threads: Option<usize>,
    pub reduction: Reduction,
    pub fresh_values: usize,
    /// The verdict every run must reach.
    pub holds: bool,
}

const CHAIN_INVARIANT: &str = "G (forall x: P0.emit(x) -> P0.token(x))";
const CHAIN_CLOSURE: &str = "forall x: G (P0.emit(x) -> P0.token(x))";
const BANK_PERSIST: &str = "forall id, l: G (O.application(id, l) -> X O.application(id, l))";

const fn cell(name: &'static str, family: Family, property: &'static str) -> Cell {
    Cell {
        name,
        family,
        property,
        threads: None,
        valuation_threads: None,
        reduction: Reduction::Full,
        fresh_values: 1,
        holds: true,
    }
}

/// `explore`: exhaustive `holds` proofs on state-heavy cells, one
/// valuation each.
pub fn explore_cells(smoke: bool) -> Vec<Cell> {
    let (seq, par, ample, dense) = if smoke { (3, 3, 3, 3) } else { (6, 6, 5, 4) };
    vec![
        cell(
            "nested_seq",
            Family::StateHeavy { m: seq, ring: 0 },
            CHAIN_INVARIANT,
        ),
        Cell {
            threads: Some(0),
            ..cell(
                "nested_par",
                Family::StateHeavy { m: par, ring: 0 },
                CHAIN_INVARIANT,
            )
        },
        Cell {
            reduction: Reduction::Ample,
            ..cell(
                "nested_ample",
                Family::StateHeavy { m: ample, ring: 0 },
                CHAIN_INVARIANT,
            )
        },
        cell(
            "dense_seq",
            Family::StateHeavy { m: dense, ring: 6 },
            CHAIN_INVARIANT,
        ),
        cell(
            "bank_ratings_reflect_db",
            Family::BankLoan,
            bank_loan::PROP_RATINGS_REFLECT_DB,
        ),
    ]
}

/// `closure`: many valuations of medium-sized searches.
pub fn closure_cells(smoke: bool) -> Vec<Cell> {
    let (narrow, wide) = if smoke { (2, 2) } else { (4, 3) };
    let mut cells = vec![
        cell(
            "relay_narrow",
            Family::ManyValuation {
                m: narrow,
                pool: 12,
            },
            CHAIN_CLOSURE,
        ),
        Cell {
            valuation_threads: Some(0),
            ..cell(
                "relay_wide",
                Family::ManyValuation { m: wide, pool: 24 },
                CHAIN_CLOSURE,
            )
        },
    ];
    if !smoke {
        cells.push(cell("bank_persist", Family::BankLoan, BANK_PERSIST));
    }
    cells
}

/// The two paper cells every `oneshot` pass adds to the corpus: a
/// violation whose counterexample walks the whole bank-loan pipeline, and
/// the lazy all-databases oracle.
pub fn paper_cells() -> Vec<Cell> {
    vec![
        Cell {
            holds: false,
            ..cell(
                "bank_no_rating_ever",
                Family::BankLoan,
                bank_loan::PROP_NO_RATING_EVER,
            )
        },
        Cell {
            fresh_values: 5,
            ..cell(
                "req_resp_all_databases",
                Family::ReqResp,
                "G (forall x: R.?req(x) -> P.d(x))",
            )
        },
    ]
}

impl Cell {
    /// Builds the composition and the database mode it is checked under.
    pub fn build(&self) -> (Composition, DatabaseMode) {
        match self.family {
            Family::StateHeavy { m, ring } => {
                let (comp, db) = relay_chain(m, ring, 0);
                (comp, DatabaseMode::Fixed(db))
            }
            Family::ManyValuation { m, pool } => {
                let (comp, db) = relay_chain(m, 0, pool);
                (comp, DatabaseMode::Fixed(db))
            }
            Family::BankLoan => {
                let sem = Semantics {
                    nested_send_skips_empty: true,
                    ..Semantics::default()
                };
                let mut comp = bank_loan::composition(true, sem);
                let db = bank_loan::demo_database(&mut comp);
                (comp, DatabaseMode::Fixed(db))
            }
            Family::ReqResp => (req_resp(), DatabaseMode::AllDatabases),
        }
    }

    /// The options the cell is checked with.
    pub fn options(&self, database: DatabaseMode) -> VerifyOptions {
        VerifyOptions {
            database,
            fresh_values: Some(self.fresh_values),
            threads: self.threads,
            valuation_threads: self.valuation_threads,
            reduction: self.reduction,
            ..VerifyOptions::default()
        }
    }
}

/// The options a compgen case is checked with: the ones the service's
/// slices use (`JobOptions::default()`), under [`CASE_BUDGET`].
pub fn case_options(database: Instance) -> VerifyOptions {
    VerifyOptions {
        database: DatabaseMode::Fixed(database),
        fresh_values: Some(1),
        max_states: CASE_BUDGET,
        ..VerifyOptions::default()
    }
}

/// What a check builds its composition from.
#[derive(Clone)]
pub enum Source {
    Cell(Cell),
    Case(CaseSpec),
}

impl Source {
    /// The composition, property and options of the check.
    pub fn build(&self) -> (Composition, String, VerifyOptions) {
        match self {
            Source::Cell(cell) => {
                let (comp, db) = cell.build();
                (comp, cell.property.to_string(), cell.options(db))
            }
            Source::Case(spec) => {
                let case = spec.build().expect("compgen specs build");
                (case.composition, case.property, case_options(case.database))
            }
        }
    }
}

/// The first `n` compgen specs of the fixed corpus stream, in the order
/// `seed` shuffles them into.
pub fn corpus(n: usize, seed: u64) -> Vec<CaseSpec> {
    let mut rng = XorShift::new(CORPUS_SEED);
    let mut specs: Vec<CaseSpec> = (0..n).map(|_| compgen::spec(&mut rng)).collect();
    shuffle(&mut specs, seed);
    specs
}

/// Fisher–Yates under the run seed.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = XorShift::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i + 1));
    }
}

/// The relay chain of E13 (`pool = 0`) and E14 (`ring = 0`). The `pool`
/// relation is read by no rule: its rows only widen the active domain.
fn relay_chain(m: usize, ring: usize, pool: usize) -> (Composition, Instance) {
    let mut b = CompositionBuilder::new();
    b.semantics(Semantics::default());
    b.default_lossy(true);
    b.channel("hop", 1, QueueKind::Nested, "P0", "P1");
    b.channel("rep", 2, QueueKind::Nested, "P1", "P2");
    let mut p0 = b.peer("P0");
    p0.database("token", 1);
    if pool > 0 {
        p0.database("pool", 1);
    }
    p0.input("emit", 1)
        .input_rule("emit", &["x"], "token(x)")
        .send_rule("hop", &["x"], "emit(x)");
    b.peer("P1")
        .database("mine", 1)
        .state("seen2", 2)
        .state_insert_rule("seen2", &["x", "y"], "mine(x) and ?hop(y)")
        .send_rule("rep", &["x", "y"], "seen2(x, y)");
    b.peer("P2")
        .state("got", 2)
        .state_insert_rule("got", &["x", "y"], "?rep(x, y)");
    if ring >= 2 {
        let phase = |i: usize| format!("phase(\"r{i}\")");
        let any_of =
            |is: &mut dyn Iterator<Item = usize>| is.map(phase).collect::<Vec<_>>().join(" or ");
        let mut arms = vec![format!("(x = \"r0\" and not ({}))", any_of(&mut (0..ring)))];
        for i in 0..ring {
            arms.push(format!(
                "(x = \"r{}\" and {} and not ({}))",
                (i + 1) % ring,
                phase(i),
                any_of(&mut (0..ring).filter(|&j| j != i))
            ));
        }
        b.peer("P1")
            .state("phase", 1)
            .state_insert_rule("phase", &["x"], &arms.join(" or "))
            .state_delete_rule("phase", &["x"], "phase(x)")
            .state("mark", 1)
            .state_insert_rule(
                "mark",
                &["x"],
                "mine(x) and seen2(x, \"t0\") and phase(\"r0\")",
            );
    }
    let mut comp = b.build().expect("relay chain composition");
    let mut db = Instance::empty(&comp.voc);
    let mut fill = |rel: &str, prefix: &str, n: usize| {
        let id = comp.voc.lookup(rel).expect("declared relation");
        for i in 0..n {
            let v = comp.symbols.intern(&format!("{prefix}{i}"));
            db.relation_mut(id).insert(Tuple::new(vec![v]));
        }
    };
    fill("P0.token", "t", m);
    fill("P1.mine", "a", m);
    if pool > 0 {
        fill("P0.pool", "p", pool);
    }
    (comp, db)
}

/// E6's request/response pair.
fn req_resp() -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(true);
    b.channel("req", 1, QueueKind::Flat, "P", "R");
    b.channel("resp", 1, QueueKind::Flat, "R", "P");
    b.peer("P")
        .database("d", 1)
        .input("pick", 1)
        .input_rule("pick", &["x"], "d(x)")
        .send_rule("req", &["x"], "pick(x)");
    b.peer("R")
        .state("served", 1)
        .state_insert_rule("served", &["x"], "?req(x)")
        .send_rule("resp", &["x"], "?req(x)");
    b.build().expect("req/resp composition")
}
