//! Regression corpus for the `ooh-model` interleaving checker.
//!
//! `tests/model_corpus/` holds the shrunk counterexample schedules the
//! explorer produced for the three seeded protocol mutations (see
//! DESIGN.md §9). Each file must keep tripping a safety property when its
//! mutation is armed — if a refactor silently defangs a mutation (or the
//! replay machinery rots), this test fails before the slower CI model-check
//! job does. Against the unmutated protocols every schedule must pass: the
//! counterexamples are bugs in the *mutants*, not in the system.
//!
//! The corpus was generated without `debug-invariants`, so every recorded
//! violation is oracle-based (P1) and replays under any feature set; under
//! `debug-invariants` a schedule may instead trip a shadow-accounting panic
//! first, which replay reports as a violation too — either way `Violated`.

use ooh_model::{replay, ModelConfig, Mutation, ReplayOutcome, ScheduleFile};

fn corpus() -> Vec<(String, ScheduleFile)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/model_corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sched"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable schedule");
            let file =
                ScheduleFile::parse(&text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
            (name, file)
        })
        .collect()
}

/// The corpus covers exactly the three seeded mutations, one schedule each.
#[test]
fn corpus_covers_all_three_mutations() {
    let mutations: Vec<Mutation> = corpus().iter().map(|(_, f)| f.model.mutation).collect();
    assert_eq!(
        mutations,
        vec![
            Mutation::ClearBeforeDrain,
            Mutation::DropIpi,
            Mutation::SkipDisableLogging
        ],
        "corpus files (sorted by name) must map to the three mutations"
    );
}

/// Every schedule still trips a violation when its mutation is armed.
#[test]
fn corpus_schedules_still_trip_their_mutations() {
    for (name, file) in corpus() {
        assert_ne!(
            file.model.mutation,
            Mutation::None,
            "{name}: corpus schedules must carry a mutation"
        );
        assert!(
            file.steps.len() <= 10,
            "{name}: corpus schedules stay shrunk (got {} steps)",
            file.steps.len()
        );
        match replay(&file.model, &file.steps).unwrap_or_else(|e| panic!("{name}: boot: {e}")) {
            ReplayOutcome::Violated { at, violation } => {
                // Fine under any feature set; just sanity-check the trip
                // point is within the schedule.
                assert!(at < file.steps.len(), "{name}: step index {at}");
                let _ = violation;
            }
            ReplayOutcome::Passed { applied, skipped } => panic!(
                "{name}: mutation {} no longer caught \
                 ({applied} steps applied, {skipped} skipped)",
                file.model.mutation.token()
            ),
        }
    }
}

/// The same schedules run clean against the unmutated protocols.
#[test]
fn corpus_schedules_pass_without_their_mutations() {
    for (name, file) in corpus() {
        let clean = ModelConfig {
            mutation: Mutation::None,
            ..file.model
        };
        match replay(&clean, &file.steps).unwrap_or_else(|e| panic!("{name}: boot: {e}")) {
            ReplayOutcome::Passed { skipped, .. } => {
                assert_eq!(skipped, 0, "{name}: every corpus step should stay enabled");
            }
            ReplayOutcome::Violated { at, violation } => panic!(
                "{name}: unmutated replay violated at step {at}: {violation}"
            ),
        }
    }
}
