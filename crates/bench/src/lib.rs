//! Shared benchmark workloads for the experiment suite of EXPERIMENTS.md.
//!
//! Each `e*_...` bench target regenerates one experiment and writes its
//! `BENCH_*.json` through [`artifact`], the one way a bench times
//! anything; this library also holds the builders they share. The
//! scenarios themselves live in the `ddws` facade crate
//! (`ddws::scenarios`).

pub mod artifact;

pub use ddws_boundaries::{counting_relay, state_space_size};

use ddws_model::{Composition, CompositionBuilder, QueueKind};
use ddws_relational::{Instance, Tuple, Value};

/// The request/response pair used by the protocol benches (E3).
pub fn req_resp(lossy: bool) -> Composition {
    let mut b = CompositionBuilder::new();
    b.default_lossy(lossy);
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

/// A unary database with `n` values for a given relation.
pub fn unary_db(comp: &mut Composition, rel: &str, n: usize) -> (Instance, Vec<Value>) {
    let mut db = Instance::empty(&comp.voc);
    let id = comp.voc.lookup(rel).expect("relation exists");
    let mut values = Vec::new();
    for i in 0..n {
        let v = comp.symbols.intern(&format!("v{i}"));
        db.relation_mut(id).insert(Tuple::new(vec![v]));
        values.push(v);
    }
    (db, values)
}
