//! The pass walk's working-copy precondition, checked pass by pass.
//!
//! [`prism::core::Walk`] keeps one working copy of the current state's IR and
//! hands it to every step until a step changes it. That is only sound if a
//! pass that reports "no change" leaves the IR exactly as it found it —
//! names and register hints included, since emission prints them. This
//! suite replays, on cloned IR, every pass the study runs and asserts that
//! contract after each run that reported no change:
//!
//! * the optimizer's schedule (every pass of every enabled stage) from each
//!   corpus shader's lowered IR, over a fixed sample of flag sets;
//! * every vendor's driver passes, both rounds, from the IR the front door
//!   ([`prism::core::front`]) makes of the shader's original text and of
//!   each sampled variant's text in that vendor's source form.
//!
//! A stage reports a change exactly when one of its passes does, so the
//! pass-level check covers the optimizer's stage steps too. The check stays
//! out of the walk itself: `==` runs `Shader::same_structure`, which bumps
//! the gated `equality_confirms` counter. Debug builds cover a corpus slice;
//! release builds cover the whole corpus.

use prism::core::{front, lower, Flag, OptFlags, SCHEDULE};
use prism::corpus::{Corpus, ShaderCase};
use prism::emit::BackendKind;
use prism::gpu::driver::DRIVER_ROUNDS;
use prism::gpu::Platform;
use prism::ir::Shader;
use std::collections::BTreeSet;

/// The corpus this build checks: a slice of families (the blur flagship
/// included) in debug, everything in release.
fn corpus() -> Corpus {
    let full = Corpus::gfxbench_like();
    if !cfg!(debug_assertions) {
        return full;
    }
    let keep = ["flagship_blur9", "ui_blit_00", "color_grade_01"];
    Corpus {
        cases: full
            .cases
            .into_iter()
            .filter(|c| keep.contains(&c.name.as_str()))
            .collect(),
    }
}

/// The flag sets replayed: none, all, each flag alone, and two mixed sets.
fn flag_sample() -> Vec<OptFlags> {
    let mut sample = vec![OptFlags::NONE, OptFlags::all()];
    sample.extend(Flag::ALL.iter().map(|&flag| OptFlags::NONE.with(flag)));
    sample.extend([0b1010_1010, 0b0101_0101].map(OptFlags::from_bits));
    sample
}

/// Runs one pass over `ir` and returns whether it reported a change; a run
/// that reports none must leave `ir` equal to what it was given.
fn checked(ir: &mut Shader, what: &str, run: impl FnOnce(&mut Shader) -> bool) -> bool {
    let before = ir.clone();
    let changed = run(ir);
    if changed {
        ir.invalidate_fingerprint();
    } else {
        assert!(
            *ir == before,
            "{what} reported no change on `{}` but changed the IR",
            before.name
        );
    }
    changed
}

/// Replays the optimizer over every sampled flag set from `case`'s lowered
/// IR, checking every pass, and returns the optimized IRs.
fn replay_optimizer(case: &ShaderCase) -> Vec<Shader> {
    let base = lower(&case.source, &case.name).expect("corpus shaders lower");
    flag_sample()
        .into_iter()
        .map(|flags| {
            let mut ir = base.clone();
            for stage in SCHEDULE.iter().filter(|s| s.enabled_for(flags)) {
                for pass in stage.passes {
                    let what = format!("optimizer pass `{}` ({flags:?})", pass.name());
                    checked(&mut ir, &what, |ir| pass.run(ir));
                }
            }
            ir
        })
        .collect()
}

/// Replays `platform`'s driver over `ir`, both rounds, checking every pass.
fn replay_driver(platform: &Platform, mut ir: Shader) {
    for round in 0..DRIVER_ROUNDS {
        let mut changed = false;
        for (pass, _) in platform.driver.stages() {
            let what = format!(
                "{:?} driver pass {pass:?} (round {round})",
                platform.vendor()
            );
            changed |= checked(&mut ir, &what, |ir| pass.run(ir));
        }
        if !changed {
            break;
        }
    }
}

#[test]
fn passes_that_report_no_change_leave_the_ir_untouched() {
    let platforms = Platform::all();
    let mut driver_inputs = 0;
    for case in &corpus().cases {
        let optimized = replay_optimizer(case);
        for platform in &platforms {
            let backend = platform.backend();
            // The original's text as the sweep submits it, then each
            // sampled variant's distinct text in this platform's form.
            let mut texts = BTreeSet::new();
            texts.insert(match backend {
                BackendKind::DesktopGlsl => case.source.text.clone(),
                backend => {
                    let base = lower(&case.source, &case.name).expect("corpus shaders lower");
                    backend.emit(&base)
                }
            });
            texts.extend(optimized.iter().map(|ir| backend.emit(ir)));
            for text in &texts {
                let input = front(backend, text, &case.name).unwrap_or_else(|e| {
                    panic!("{:?} rejects `{}`: {e}", platform.vendor(), case.name)
                });
                replay_driver(platform, input.ir);
                driver_inputs += 1;
            }
        }
    }
    assert!(driver_inputs > 0);
}
