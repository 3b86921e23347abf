//! Round trips between the code generator and the frontend: emitting a
//! kernel as plain C and re-parsing it must preserve functional behaviour,
//! and the PREM emission must stay structurally sound for every kernel.

use prem::codegen::{emit_original_c, emit_prem_c, EmitComponent};
use prem::core::{
    optimize_app, Component, ComponentAnalysis, ExecModel, LoopTree, OptimizerOptions, Platform,
    Solution,
};
use prem::frontend::parse_kernel;
use prem::ir::{run_program, MemStore, Program};
use prem::sim::SimCost;

/// Strips declarations/macros emit adds so `parse_kernel` sees only the body
/// grammar it accepts plus the declarations.
fn strip_preamble(code: &str) -> String {
    code.lines()
        .filter(|l| {
            !l.starts_with("#include")
                && !l.starts_with("#define")
                && !l.starts_with("void ")
                && *l != "}"
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The components `optimize_app` selects for `program` on `platform`, ready
/// to emit.
fn optimized(program: &Program, platform: &Platform) -> Vec<EmitComponent> {
    let tree = LoopTree::build(program).unwrap();
    let out = optimize_app(
        &tree,
        program,
        platform,
        &SimCost::new(program),
        &OptimizerOptions::default(),
    );
    out.components
        .iter()
        .map(|c| EmitComponent {
            component: c.component.clone(),
            solution: c.solution.clone(),
        })
        .collect()
}

#[test]
fn original_emission_reparses_equivalently() {
    for (name, program) in prem::kernels::all_small() {
        let code = emit_original_c(&program);
        let body = strip_preamble(&code);
        let reparsed = parse_kernel(name, &body, &[("FLT_MAX", 0)]);
        let reparsed = match reparsed {
            Ok(p) => p,
            Err(e) => panic!("{name}: reparse failed: {e}\n{body}"),
        };
        if name == "maxpool" {
            // The float sentinel differs (parser cannot express -FLT_MAX);
            // structural equivalence only.
            assert_eq!(reparsed.loop_count, program.loop_count);
            assert_eq!(reparsed.stmt_count, program.stmt_count);
            continue;
        }
        let mut s1 = MemStore::patterned(&program);
        let mut s2 = MemStore::patterned(&reparsed);
        run_program(&program, &mut s1);
        run_program(&reparsed, &mut s2);
        assert_eq!(
            s1.max_abs_diff(&s2),
            0.0,
            "{name} diverges after round trip"
        );
    }
}

#[test]
fn prem_emission_valid_for_all_kernels() {
    for (name, program) in prem::kernels::all_small() {
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        let comps = optimized(&program, &platform);
        let code = emit_prem_c(&program, &comps, &platform).unwrap();
        assert_eq!(
            code.matches('{').count(),
            code.matches('}').count(),
            "{name}: unbalanced braces"
        );
        for needle in [
            "allocate_buffer",
            "dispatch()",
            "end_segment()",
            "threadID()",
            "deallocate_buffer",
        ] {
            assert!(code.contains(needle), "{name}: missing {needle}");
        }
        // One pair of streaming buffers per array of each component.
        for c in &comps {
            for arr in &c.component.arrays {
                assert!(
                    code.contains(&format!("{}_buf1", arr.name)),
                    "{name}: missing buffer for {}",
                    arr.name
                );
            }
        }
    }
}

/// `gcc -std=c99 -fsyntax-only` accepts `code`; skipped without gcc.
fn gcc_accepts(what: &str, code: &str) {
    if std::process::Command::new("gcc")
        .arg("--version")
        .output()
        .is_err()
    {
        eprintln!("gcc unavailable; skipping syntax check");
        return;
    }
    let path = std::env::temp_dir().join(format!("prem_rt_{what}_{}.c", std::process::id()));
    std::fs::write(&path, code).unwrap();
    let out = std::process::Command::new("gcc")
        .args(["-std=c99", "-fsyntax-only"])
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The value of the C declaration `const int <name>[...] = <value>;` that
/// first follows `from` in `code`.
fn table<'a>(code: &'a str, from: usize, name: &str) -> &'a str {
    let decl = format!("const int {name}[");
    let at = from
        + code[from..]
            .find(&decl)
            .unwrap_or_else(|| panic!("no {name}"));
    let line = code[at..].lines().next().unwrap();
    line.split(" = ").nth(1).unwrap().trim_end_matches(';')
}

/// Emits `comps` and checks, per component and array, that the emitted
/// `*_nswap` / `*_seg_at` tables are the schedule's per-core `SegmentToSwap`
/// lists.
fn check_swap_tables(what: &str, program: &Program, comps: &[EmitComponent], platform: &Platform) {
    let code = emit_prem_c(program, comps, platform).unwrap();
    for ec in comps {
        let (comp, sol) = (&ec.component, &ec.solution);
        let model = ExecModel {
            o: vec![0.0; comp.depth()],
            w: 0.0,
        };
        let schedule = ComponentAnalysis::build(comp, sol, platform.cores, &model, false).unwrap();
        let threads = sol.threads() as usize;
        let names: Vec<&str> = comp.levels.iter().map(|l| l.name.as_str()).collect();
        let header = format!(
            "PREM component ({}) — {sol} on {threads} threads",
            names.join(", ")
        );
        let from = code
            .find(&header)
            .unwrap_or_else(|| panic!("{what}: no {header}"));
        for (ai, arr) in comp.arrays.iter().enumerate() {
            let lists: Vec<Vec<usize>> = (0..threads)
                .map(|c| {
                    schedule.core(c).swap_lists[ai]
                        .iter()
                        .map(|e| e.seg)
                        .collect()
                })
                .collect();
            let width = lists.iter().map(Vec::len).max().unwrap_or(0).max(1);
            let join = |v: Vec<String>| v.join(", ");
            let nswap = format!(
                "{{{}}}",
                join(lists.iter().map(|l| l.len().to_string()).collect())
            );
            let seg_at = format!(
                "{{{}}}",
                join(
                    lists
                        .iter()
                        .map(|l| {
                            let mut row: Vec<String> = l.iter().map(usize::to_string).collect();
                            row.resize(width, "0".into());
                            format!("{{{}}}", join(row))
                        })
                        .collect()
                )
            );
            let a = &arr.name;
            assert_eq!(
                table(&code, from, &format!("{a}_nswap")),
                nswap,
                "{what} {a}"
            );
            assert_eq!(
                table(&code, from, &format!("{a}_seg_at")),
                seg_at,
                "{what} {a}"
            );
        }
    }
}

/// An array whose every access is guarded (`b`, written only at `j == 0`)
/// binds no range on the segments the guard excludes: its swap tables list
/// only the segments that touch it, and a thread that never binds it issues
/// no swap for it at all.
#[test]
fn swap_tables_match_the_schedule() {
    for (name, program) in prem::kernels::all_small() {
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        check_swap_tables(name, &program, &optimized(&program, &platform), &platform);
    }

    let program = parse_kernel(
        "guarded",
        "float a[64][64]; float b[64];
         for (int i = 0; i < 64; i++)
           for (int j = 0; j < 64; j++) {
             if (j == 0) b[i] = 1.0;
             a[i][j] = a[i][j] * 2.0;
           }",
        &[],
    )
    .unwrap();
    let tree = LoopTree::build(&program).unwrap();
    let (i, j) = (&tree.roots[0], &tree.roots[0].children[0]);
    let ec = EmitComponent {
        component: Component::extract(&tree, &program, &[i, j]),
        solution: Solution {
            k: vec![8, 16],
            r: vec![4, 2],
        },
    };
    let platform = Platform::default().with_spm_bytes(2 * 1024);
    check_swap_tables("guarded", &program, std::slice::from_ref(&ec), &platform);
    // Even threads own the j == 0 column: b binds at segments 1 and 3; odd
    // threads never touch b and skip its initial swap.
    let code = emit_prem_c(&program, std::slice::from_ref(&ec), &platform).unwrap();
    gcc_accepts("guarded", &code);
    assert!(code.contains("const int b_nswap[8] = {2, 0, 2, 0, 2, 0, 2, 0};"));
    assert!(code.contains("if (0 < b_nswap[threadID()]) {"));
    assert!(!code.contains("if (0 < a_nswap[threadID()])"));
}

#[test]
fn emitted_c_compiles_with_gcc_when_available() {
    for (name, program) in prem::kernels::all_small() {
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        let comps = optimized(&program, &platform);
        gcc_accepts(&format!("{name}_original"), &emit_original_c(&program));
        gcc_accepts(name, &emit_prem_c(&program, &comps, &platform).unwrap());
    }
}
