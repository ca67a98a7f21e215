//! The output check: re-verifies a returned package against the query text.
//!
//! Deterministic clauses (`SUM(attr)` and `COUNT(*)` bounds), `REPEAT`
//! limits, the `WHERE` candidate set and integrality are evaluated directly
//! from the bound sPaQL AST and the relation's columns, with compensated
//! summation — none of it goes through the translator or the solver.
//! Probabilistic clauses are re-validated with `spq_core::validate` on an
//! instance restricted to the package's tuples, under a *fresh* validation
//! seed, and accepted within a stated number of standard errors so that
//! sampling noise alone does not fail a correct package.

use crate::stats::neumaier_sum;
use spq_core::{SpqEngine, SpqOptions};
use spq_mcdb::Relation;
use spq_spaql::{AggExpr, CompareOp, ConstraintExpr};

/// Check parameters.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Out-of-sample scenarios of the re-validation.
    pub m_hat: usize,
    /// Scenarios the engine validated with (its own sampling noise enters
    /// the tolerance too).
    pub engine_m_hat: usize,
    /// Accepted shortfall of a probabilistic constraint, in standard errors
    /// of the difference between the two validations.
    pub std_errors: f64,
    /// Seed of the re-validation; differs from every engine seed.
    pub seed: u64,
}

impl CheckConfig {
    /// The benchmark's check: 10,000 fresh scenarios, three standard
    /// errors, a validation seed derived from the workload seed.
    pub fn new(engine_m_hat: usize, workload_seed: u64) -> CheckConfig {
        CheckConfig {
            m_hat: 10_000,
            engine_m_hat,
            std_errors: 3.0,
            seed: workload_seed ^ 0x5eed_c4ec,
        }
    }
}

/// Relative tolerance of deterministic clauses (solver round-off).
const DET_TOLERANCE: f64 = 1e-7;

fn holds(lhs: f64, op: CompareOp, rhs: f64) -> bool {
    let tol = DET_TOLERANCE * rhs.abs().max(1.0);
    match op {
        CompareOp::Le => lhs <= rhs + tol,
        CompareOp::Lt => lhs < rhs + tol,
        CompareOp::Ge => lhs >= rhs - tol,
        CompareOp::Gt => lhs > rhs - tol,
        CompareOp::Eq => (lhs - rhs).abs() <= tol,
        CompareOp::Ne => (lhs - rhs).abs() > tol,
    }
}

/// `Σ coeff(t) · m` over the package for a deterministic aggregate.
fn deterministic_sum(
    relation: &Relation,
    agg: &AggExpr,
    package: &[(usize, u32)],
) -> Result<f64, String> {
    match agg {
        AggExpr::Count => Ok(neumaier_sum(package.iter().map(|&(_, m)| f64::from(m)))),
        AggExpr::Sum { attribute } => {
            if relation.is_stochastic(attribute) {
                return Err(format!(
                    "SUM({attribute}) is stochastic in a deterministic clause"
                ));
            }
            let tuples: Vec<usize> = package.iter().map(|&(t, _)| t).collect();
            let values = relation
                .gather_f64(attribute, &tuples)
                .map_err(|e| format!("reading {attribute}: {e}"))?;
            Ok(neumaier_sum(
                values
                    .iter()
                    .zip(package)
                    .map(|(v, &(_, m))| v * f64::from(m)),
            ))
        }
    }
}

/// Check `package` (sorted `(tuple, multiplicity)` pairs) for `query` on
/// `relation`. `Ok` carries nothing; `Err` says which clause failed.
pub fn check_package(
    relation: &Relation,
    query: &str,
    package: &[(usize, u32)],
    config: &CheckConfig,
) -> Result<(), String> {
    let parsed = spq_spaql::parse(query).map_err(|e| format!("parse: {e}"))?;
    let bound = spq_spaql::bind(&parsed, relation).map_err(|e| format!("bind: {e}"))?;

    // Shape, candidate membership, integrality and REPEAT.
    for pair in package.windows(2) {
        if pair[0].0 >= pair[1].0 {
            return Err(format!("tuple {} listed out of order or twice", pair[1].0));
        }
    }
    for &(t, m) in package {
        if bound.candidate_tuples.binary_search(&t).is_err() {
            return Err(format!("tuple {t} is not a candidate of the query"));
        }
        if m == 0 {
            return Err(format!("tuple {t} has multiplicity 0"));
        }
        if let Some(r) = bound.query.repeat {
            if m > r + 1 {
                return Err(format!(
                    "tuple {t} repeated {m} times, REPEAT {r} allows {}",
                    r + 1
                ));
            }
        }
    }

    // Deterministic clauses, straight from the AST.
    let mut probabilistic = 0;
    for clause in &bound.query.constraints {
        match clause {
            ConstraintExpr::Deterministic { agg, op, value } => {
                let lhs = deterministic_sum(relation, agg, package)?;
                if !holds(lhs, *op, *value) {
                    return Err(format!("{clause} violated: lhs = {lhs}"));
                }
            }
            ConstraintExpr::Between { agg, low, high } => {
                let lhs = deterministic_sum(relation, agg, package)?;
                if !holds(lhs, CompareOp::Ge, *low) || !holds(lhs, CompareOp::Le, *high) {
                    return Err(format!("{clause} violated: lhs = {lhs}"));
                }
            }
            ConstraintExpr::Expected { .. } => {
                return Err(format!("{clause}: expectation clauses are not checked"));
            }
            ConstraintExpr::Probabilistic { .. } => probabilistic += 1,
        }
    }
    if probabilistic == 0 {
        return Ok(());
    }

    // Probabilistic clauses: fresh-seed re-validation on the package only.
    let options = SpqOptions {
        seed: config.seed,
        validation_scenarios: config.m_hat,
        expectation_scenarios: 64,
        time_limit: None,
        ..SpqOptions::default()
    };
    let engine = SpqEngine::new(options);
    let mut silp = engine
        .compile(relation, query)
        .map_err(|e| format!("compile: {e}"))?;
    silp.tuples = package.iter().map(|&(t, _)| t).collect();
    let instance = engine
        .prepare(relation, silp)
        .map_err(|e| format!("prepare: {e}"))?;
    let x: Vec<f64> = package.iter().map(|&(_, m)| f64::from(m)).collect();
    let report =
        spq_core::validate(&instance, &x, config.m_hat).map_err(|e| format!("validate: {e}"))?;
    if report.constraints.len() != probabilistic {
        return Err(format!(
            "re-validation scored {} probabilistic clauses, the query has {probabilistic}",
            report.constraints.len()
        ));
    }
    for c in &report.constraints {
        let p = c.probability;
        let se = (p * (1.0 - p)).sqrt()
            * (1.0 / config.m_hat as f64 + 1.0 / config.engine_m_hat as f64).sqrt();
        let floor = p - config.std_errors * se;
        if c.satisfied_fraction < floor {
            return Err(format!(
                "probabilistic clause {} holds in {:.4} of {} fresh scenarios, below {p} - {} SE = {floor:.4}",
                c.constraint_index, c.satisfied_fraction, config.m_hat, config.std_errors
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_workloads::{portfolio, PortfolioConfig};

    fn config() -> CheckConfig {
        CheckConfig {
            m_hat: 2000,
            engine_m_hat: 2000,
            std_errors: 3.0,
            seed: 99,
        }
    }

    #[test]
    fn rejects_a_package_over_the_portfolio_budget() {
        let relation = portfolio::build_relation(&PortfolioConfig::for_query(1, 40, 3));
        let query = portfolio::query(1);
        let prices = relation.gather_f64("price", &[0, 1, 2]).unwrap();
        // Enough copies of tuple 0 to exceed SUM(price) <= 1000 on their own.
        let copies = (1000.0 / prices[0]).floor() as u32 + 1;
        let err = check_package(&relation, &query, &[(0, copies)], &config()).unwrap_err();
        assert!(err.contains("SUM(price) <= 1000"), "{err}");
    }

    #[test]
    fn accepts_low_risk_packages_and_rejects_bad_shapes() {
        let relation = portfolio::build_relation(&PortfolioConfig::for_query(1, 40, 3));
        let query = portfolio::query(1);
        // One share of one stock cannot lose 10 with any real probability.
        assert_eq!(
            check_package(&relation, &query, &[(0, 1)], &config()),
            Ok(())
        );
        // The empty package meets every clause of Q1 (a sum of 0 >= -10).
        assert_eq!(check_package(&relation, &query, &[], &config()), Ok(()));
        assert!(check_package(&relation, &query, &[(1, 1), (0, 1)], &config()).is_err());
        assert!(check_package(&relation, &query, &[(0, 0)], &config()).is_err());
        assert!(check_package(&relation, &query, &[(10_000, 1)], &config()).is_err());
    }

    #[test]
    fn rejects_a_package_that_misses_its_probabilistic_clause() {
        // A large, volatile position loses more than 10 far more often than
        // one time in ten, whatever the fresh seed.
        let relation = portfolio::build_relation(&PortfolioConfig::for_query(3, 400, 3));
        let query = portfolio::query(3).replace("SUM(price) <= 1000", "SUM(price) <= 1000000");
        let package: Vec<(usize, u32)> = (0..40).map(|t| (t, 20)).collect();
        let err = check_package(&relation, &query, &package, &config()).unwrap_err();
        assert!(err.contains("probabilistic clause"), "{err}");
    }
}
