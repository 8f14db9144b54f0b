//! Seeded IR mutation corruptors: deliberately break well-formed shaders and
//! demand the safety net (the structural verifier, or failing that a lint
//! diff) notices every single time.
//!
//! Four corruption kinds, each applied to every corpus shader in both its
//! unoptimized and LunarGLASS-default-optimized forms, at a site chosen by a
//! deterministic per-shader seed:
//!
//! 1. **drop a def** — remove a top-level single-definition register whose
//!    value is used later (use-before-def on every path);
//! 2. **lane out of range** — set a swizzle lane / extract index / insert
//!    index / store component to 9 (no vector is that wide);
//! 3. **retype a register** — change the declared width of the destination
//!    of a type-checked op (`Mov`, `Construct`, `Swizzle`, ...);
//! 4. **orphan an operand** — point an `Input`/`Uniform` operand at an index
//!    far past the interface tables.
//!
//! A mutant that neither fails [`verify`] nor changes the lint set is a
//! *silent survivor*; the suite requires zero of them.

use prism::analyze::lint;
use prism::core::{CompileSession, OptFlags};
use prism::corpus::Corpus;
use prism::ir::hash::fnv64;
use prism::ir::stmt::{rewrite_operands, walk_body};
use prism::ir::verify::verify;
use prism::ir::{IrType, Op, Operand, Reg, Shader, Stmt};
use std::collections::HashMap;

/// FNV-1a of the shader's label: a stable, shader-specific mutation seed so
/// different shaders corrupt different sites but every run corrupts the same
/// ones.
fn seed(label: &str, kind: &str) -> u64 {
    fnv64(format!("{label}{kind}").as_bytes())
}

/// Every corpus shader, in both unoptimized and default-optimized form.
fn corpus_shaders() -> Vec<(String, Shader)> {
    let mut shaders = Vec::new();
    for case in &Corpus::family_mix().cases {
        let session =
            CompileSession::new(&case.source, &case.name).expect("corpus shader must lower");
        shaders.push((format!("{}(base)", case.name), session.base_ir().clone()));
        let optimized = session
            .compile(OptFlags::lunarglass_default())
            .expect("corpus shader must compile");
        shaders.push((format!("{}(opt)", case.name), (*optimized.ir).clone()));
    }
    shaders
}

/// Visit every statement (including nested bodies) in program order.
fn for_each_stmt_mut(body: &mut Vec<Stmt>, visit: &mut impl FnMut(&mut Stmt)) {
    for stmt in body {
        visit(stmt);
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for_each_stmt_mut(then_body, visit);
                for_each_stmt_mut(else_body, visit);
            }
            Stmt::Loop { body, .. } => for_each_stmt_mut(body, visit),
            _ => {}
        }
    }
}

/// `verify`-or-lint-diff detection. Returns `None` when the mutant was
/// caught, `Some(reason)` describing the silent survivor otherwise.
fn detect(label: &str, kind: &str, base: &Shader, mutant: &Shader) -> Option<String> {
    assert_ne!(base, mutant, "{label}/{kind}: mutation must change the IR");
    if verify(mutant).is_err() {
        return None;
    }
    if lint(mutant) != lint(base) {
        return None;
    }
    Some(format!("{label}/{kind}: verify passed and lints unchanged"))
}

#[test]
fn dropping_a_used_def_never_goes_unnoticed() {
    let mut survivors = Vec::new();
    let mut applied = 0usize;
    for (label, base) in corpus_shaders() {
        // Count defs and uses of every register across the whole body.
        let mut defs: HashMap<Reg, usize> = HashMap::new();
        let mut uses: HashMap<Reg, usize> = HashMap::new();
        walk_body(&base.body, &mut |stmt| {
            match stmt {
                Stmt::Def { dst, .. } => *defs.entry(*dst).or_default() += 1,
                Stmt::Loop { var, .. } => *defs.entry(*var).or_default() += 1,
                _ => {}
            }
            for operand in stmt.operands() {
                if let Operand::Reg(r) = operand {
                    *uses.entry(*r).or_default() += 1;
                }
            }
        });
        // A top-level def of a single-definition register that is read
        // elsewhere: removing it orphans every one of those reads.
        let sites: Vec<usize> = base
            .body
            .iter()
            .enumerate()
            .filter(|(_, stmt)| match stmt {
                Stmt::Def { dst, .. } => {
                    defs.get(dst) == Some(&1) && uses.get(dst).copied().unwrap_or(0) > 0
                }
                _ => false,
            })
            .map(|(i, _)| i)
            .collect();
        if sites.is_empty() {
            continue;
        }
        let site = sites[(seed(&label, "drop-def") as usize) % sites.len()];
        let mut mutant = base.clone();
        mutant.body.remove(site);
        applied += 1;
        survivors.extend(detect(&label, "drop-def", &base, &mutant));
    }
    assert!(
        applied >= 4,
        "too few drop-def sites across the corpus: {applied}"
    );
    assert!(survivors.is_empty(), "silent survivors: {survivors:?}");
}

#[test]
fn out_of_range_lanes_never_go_unnoticed() {
    let mut survivors = Vec::new();
    let mut applied = 0usize;
    for (label, base) in corpus_shaders() {
        // Count applicable sites first, then corrupt exactly one of them.
        let lane_sites = |stmt: &mut Stmt| -> bool {
            match stmt {
                Stmt::Def { op, .. } => matches!(
                    op,
                    Op::Swizzle { .. } | Op::Extract { .. } | Op::Insert { .. }
                ),
                Stmt::StoreOutput {
                    components: Some(c),
                    ..
                } => !c.is_empty(),
                _ => false,
            }
        };
        let mut count = 0usize;
        let mut mutant = base.clone();
        for_each_stmt_mut(&mut mutant.body, &mut |stmt| {
            if lane_sites(stmt) {
                count += 1;
            }
        });
        if count == 0 {
            continue;
        }
        let target = (seed(&label, "lane") as usize) % count;
        let mut index = 0usize;
        for_each_stmt_mut(&mut mutant.body, &mut |stmt| {
            let hit = lane_sites(stmt) && {
                let here = index == target;
                index += 1;
                here
            };
            if !hit {
                return;
            }
            match stmt {
                Stmt::Def {
                    op: Op::Swizzle { lanes, .. },
                    ..
                } => lanes[0] = 9,
                Stmt::Def {
                    op: Op::Extract { index, .. },
                    ..
                }
                | Stmt::Def {
                    op: Op::Insert { index, .. },
                    ..
                } => *index = 9,
                Stmt::StoreOutput {
                    components: Some(c),
                    ..
                } => c[0] = 9,
                _ => unreachable!("site predicate admitted a non-lane statement"),
            }
        });
        applied += 1;
        survivors.extend(detect(&label, "lane", &base, &mutant));
    }
    assert!(
        applied >= 2,
        "too few lane sites across the corpus: {applied}"
    );
    assert!(survivors.is_empty(), "silent survivors: {survivors:?}");
}

#[test]
fn retyping_a_register_never_goes_unnoticed() {
    let mut survivors = Vec::new();
    let mut applied = 0usize;
    for (label, base) in corpus_shaders() {
        // Destinations of ops whose result type the verifier pins exactly:
        // widening or narrowing the declared register type must trip it.
        let mut candidates: Vec<Reg> = Vec::new();
        walk_body(&base.body, &mut |stmt| {
            if let Stmt::Def { dst, op } = stmt {
                let pinned = matches!(
                    op,
                    Op::Mov(_)
                        | Op::Splat { .. }
                        | Op::Construct { .. }
                        | Op::Convert { .. }
                        | Op::TextureSample { .. }
                        | Op::Swizzle { .. }
                        | Op::Extract { .. }
                );
                if pinned {
                    candidates.push(*dst);
                }
            }
        });
        if candidates.is_empty() {
            continue;
        }
        let reg = candidates[(seed(&label, "retype") as usize) % candidates.len()];
        let mut mutant = base.clone();
        let old = mutant.regs[reg.0 as usize].ty;
        let new_width = if old.width == 4 { 1 } else { old.width + 1 };
        mutant.regs[reg.0 as usize].ty = IrType::vec(old.scalar, new_width);
        applied += 1;
        survivors.extend(detect(&label, "retype", &base, &mutant));
    }
    assert!(
        applied >= 4,
        "too few retype sites across the corpus: {applied}"
    );
    assert!(survivors.is_empty(), "silent survivors: {survivors:?}");
}

#[test]
fn orphaned_interface_operands_never_go_unnoticed() {
    let mut survivors = Vec::new();
    let mut applied = 0usize;
    for (label, base) in corpus_shaders() {
        let mut count = 0usize;
        let mut mutant = base.clone();
        rewrite_operands(&mut mutant.body, &mut |operand| {
            if matches!(operand, Operand::Input(_) | Operand::Uniform(_)) {
                count += 1;
            }
        });
        if count == 0 {
            continue;
        }
        let target = (seed(&label, "orphan") as usize) % count;
        let mut index = 0usize;
        rewrite_operands(&mut mutant.body, &mut |operand| {
            match operand {
                Operand::Input(i) | Operand::Uniform(i) => {
                    if index == target {
                        // No corpus shader declares anywhere near 100
                        // interface slots: this index dangles.
                        *i += 100;
                    }
                    index += 1;
                }
                _ => {}
            }
        });
        applied += 1;
        survivors.extend(detect(&label, "orphan", &base, &mutant));
    }
    assert!(
        applied >= 4,
        "too few orphan sites across the corpus: {applied}"
    );
    assert!(survivors.is_empty(), "silent survivors: {survivors:?}");
}
