//! The contract of `CostProvider::exec_model`: the model is a function of
//! what `Component::fingerprint` encodes. `optimize_app` fits once per
//! fingerprint and hands that model to every repeat, so two components of a
//! whole-network chain that differ only in names and program-wide ids must
//! get bitwise-equal models from every provider.

mod common;

use common::chain;
use prem::core::{AnalyticCost, Component, CostProvider, ExecModel, LoopTree};
use prem::sim::SimCost;

fn bits(m: &ExecModel) -> Vec<u64> {
    m.o.iter().chain([&m.w]).map(|v| v.to_bits()).collect()
}

#[test]
fn equal_fingerprints_get_bitwise_equal_models() {
    let program = chain(12, 64);
    let tree = LoopTree::build(&program).expect("chain lowers");
    let components: Vec<Component> = tree
        .roots
        .iter()
        .map(|root| {
            let mut path = vec![root];
            while path[path.len() - 1].perfectly_nests() {
                let next = &path[path.len() - 1].children[0];
                if !next.tilable {
                    break;
                }
                path.push(next);
            }
            Component::extract(&tree, &program, &path)
        })
        .collect();
    let analytic = AnalyticCost::new(&program);
    let sim = SimCost::new(&program);
    let mut pairs = 0;
    for (i, a) in components.iter().enumerate() {
        for b in &components[i + 1..] {
            if a.fingerprint() != b.fingerprint() {
                continue;
            }
            // Same content under other names and statement ids.
            assert_ne!(a.stmts, b.stmts);
            assert_ne!(a.levels[0].name, b.levels[0].name);
            assert_eq!(bits(&analytic.exec_model(a)), bits(&analytic.exec_model(b)));
            assert_eq!(bits(&sim.exec_model(a)), bits(&sim.exec_model(b)));
            pairs += 1;
        }
    }
    assert!(pairs > 10, "only {pairs} repeated components");
}
