//! An evaluator that changes its fitness kind mid-search is a fault of
//! the evaluator, reported as a typed `SearchError::Config` by every
//! engine (`Moea`, `random_search`, `IslandSearch`), never a panic.

use hwpr_nasbench::{Architecture, SearchSpaceId};
use hwpr_search::{
    random_search, share_objectives, Evaluator, Fitness, IslandConfig, IslandSearch, Moea,
    MoeaConfig, RandomSearchConfig, SearchClock, SearchError,
};

/// Scores on its first call, objective vectors on every later one.
#[derive(Default)]
struct KindSwitcher {
    calls: usize,
}

impl Evaluator for KindSwitcher {
    fn name(&self) -> String {
        "kind-switcher".to_string()
    }

    fn evaluate(
        &mut self,
        archs: &[Architecture],
        _clock: &mut SearchClock,
    ) -> hwpr_search::Result<Fitness> {
        self.calls += 1;
        let x = |a: &Architecture| (a.index() % 101) as f64;
        Ok(if self.calls == 1 {
            Fitness::Scores(archs.iter().map(x).collect())
        } else {
            Fitness::Objectives(share_objectives(
                archs.iter().map(|a| vec![x(a), 100.0 - x(a)]).collect(),
            ))
        })
    }

    fn calls_per_arch(&self) -> usize {
        1
    }
}

fn assert_config_error<T: std::fmt::Debug>(result: hwpr_search::Result<T>) {
    match result {
        Err(SearchError::Config(msg)) => assert!(msg.contains("fitness kind"), "{msg}"),
        other => panic!("expected a fitness-kind Config error, got {other:?}"),
    }
}

#[test]
fn moea_reports_a_kind_change_as_a_config_error() {
    let moea = Moea::new(MoeaConfig::small(SearchSpaceId::NasBench201)).unwrap();
    assert_config_error(moea.run(&mut KindSwitcher::default()));
}

#[test]
fn random_search_reports_a_kind_change_as_a_config_error() {
    // more samples than one 512-row chunk, so the evaluator is called twice
    let cfg = RandomSearchConfig {
        samples: 600,
        ..RandomSearchConfig::small(SearchSpaceId::NasBench201)
    };
    assert_config_error(random_search(&cfg, &mut KindSwitcher::default()));
}

#[test]
fn island_search_reports_a_kind_change_as_a_config_error() {
    let search = IslandSearch::new(IslandConfig::small(SearchSpaceId::NasBench201)).unwrap();
    assert_config_error(search.run(|_| Box::new(KindSwitcher::default())));
}
