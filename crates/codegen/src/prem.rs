//! Emission of PREM-compliant C (the output of Listing 3.3).
//!
//! For every scheduled component the emitter produces:
//!
//! * per-array *swap parameter tables* (§3.5, Table 3.2): one row per thread,
//!   one entry per `SegmentToSwap` element, holding the main-memory offset
//!   and transfer sizes (offsets may reference outer loop variables, so the
//!   tables are automatic locals declared inside the outer loops, exactly
//!   like Listing 3.3);
//! * streaming buffer pointers into the two SPM partitions and the
//!   `allocate_buffer` calls;
//! * the initial swaps and `dispatch` of the initialization segment;
//! * per-thread tiled loops with the `threadID()`-derived group bounds of
//!   §3.4;
//! * a `DATA_SWAP_APIS` block driven by per-thread cursor tables — the
//!   uniform generalization of the paper's constant-change-stride
//!   conditionals and bit vectors (§3.5); entry `x` targets buffer
//!   `x mod 2`, reproducing the double-buffer alternation;
//! * element loops whose accesses are rewritten buffer-relative
//!   (`i[s1_0 - s1_0_t*109]` in the paper's example);
//! * the `BUFFER_DEALLOC_APIS` epilogue.

use crate::cexpr::{cat, int, join, uint, CProgram, Pad};
use crate::original::{emit_arrays, emit_block, emit_nodes};
use prem_core::scheduler::fan_out;
use prem_core::{
    default_budget, ArrayUse, BufferAttr, Component, ComponentAnalysis, ComponentFingerprint,
    CoreAnalysis, ExecModel, Infeasible, OuterTerm, Platform, Solution,
};
use prem_ir::{IdxExpr, Loop, Node, Program};
use prem_polyhedral::Interval;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Error raised when a program cannot be emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The component's solution is not schedulable.
    Infeasible(String),
    /// A component loop was not found in the program.
    MissingLoop(usize),
    /// A component has no loop levels, so no loop starts it.
    EmptyComponent,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Infeasible(s) => write!(f, "cannot emit infeasible solution: {s}"),
            EmitError::MissingLoop(id) => write!(f, "component loop l{id} not in program"),
            EmitError::EmptyComponent => f.write_str("component has no loop levels"),
        }
    }
}

impl std::error::Error for EmitError {}

/// A component paired with the solution to emit.
#[derive(Debug, Clone)]
pub struct EmitComponent {
    /// The component.
    pub component: Component,
    /// The chosen solution.
    pub solution: Solution,
}

/// Everything before the SPM partitions: headers, macros and the PREM API.
const PREAMBLE: &str = "#include <stdint.h>\n#include <stddef.h>\n#include <float.h>\n\n\
    #define MAX(a, b) ((a) > (b) ? (a) : (b))\n\
    #define MIN(a, b) ((a) < (b) ? (a) : (b))\n\n\
    /* PREM streaming API (Soliman et al., Table 2.1 + swapnd, §3.5) */\n\
    extern int  allocate_buffer(void *dst, int attr);\n\
    extern void swap_buffer(int id, uint64_t *src, int size);\n\
    extern void swap2d_buffer(int id, uint64_t *src, int width, int height, int spitch, int dpitch);\n\
    extern void swapnd_buffer(int id, uint64_t *src, size_t dim, const int size[], const int spitch[], const int dpitch[]);\n\
    extern void deallocate_buffer(int id);\n\
    extern void dispatch(void);\n\
    extern void end_segment(void);\n\
    extern int  threadID(void);\n\
    #define PREM_RO 0\n#define PREM_WO 1\n#define PREM_RW 2\n\n";

/// Emits the full PREM-compliant program:
/// `void <name>_prem(void)` parameterized by `threadID()`, plus the PREM API
/// prototypes and SPM partition symbols.
///
/// Components with equal `(fingerprint, solution)` share one analysis, and
/// the distinct keys are rendered on [`default_budget`] threads — on the
/// caller alone, with no budget asked for, when there is one key. The bytes
/// are those of [`emit_prem_c_with_budget`] at any budget.
///
/// # Errors
///
/// Returns [`EmitError`] if a solution is infeasible or the program shape is
/// inconsistent: the error of the first failing component in program order.
pub fn emit_prem_c(
    program: &Program,
    components: &[EmitComponent],
    platform: &Platform,
) -> Result<String, EmitError> {
    emit(program, components, platform, default_budget)
}

/// [`emit_prem_c`] on at most `budget` threads, the caller included (`1`
/// spawns none), like `prem_core::optimize_app_with_budget`. The output is
/// the same for every budget.
///
/// # Errors
///
/// As [`emit_prem_c`].
pub fn emit_prem_c_with_budget(
    program: &Program,
    components: &[EmitComponent],
    platform: &Platform,
    budget: usize,
) -> Result<String, EmitError> {
    emit(program, components, platform, || budget)
}

/// A claimed loop of the program body: the component it starts and the
/// indent its block is written at.
struct Block<'a> {
    ec: &'a EmitComponent,
    indent: usize,
}

/// The three steps of an emission. The text-free walk finds the blocks;
/// one [`fan_out`] unit per distinct `(fingerprint, solution)` key renders
/// every block of that key (`budget` is asked for only when there are two
/// keys or more); the [`emit_body`] walk splices them in program order.
fn emit(
    program: &Program,
    components: &[EmitComponent],
    platform: &Platform,
    budget: impl FnOnce() -> usize,
) -> Result<String, EmitError> {
    let c = CProgram::new(program);
    let starts = starts(components)?;
    let mut blocks = Vec::new();
    find_blocks(&program.body, 1, &starts, &mut blocks);

    // The blocks of each key, in program order.
    let mut keys: HashMap<(ComponentFingerprint, &Solution), usize> = HashMap::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        let key = (block.ec.component.fingerprint(), &block.ec.solution);
        match keys.entry(key) {
            Entry::Occupied(e) => members[*e.get()].push(b),
            Entry::Vacant(e) => {
                e.insert(members.len());
                members.push(vec![b]);
            }
        }
    }
    // Largest keys first, so no big one starts last while the other threads
    // idle; the blocks go back by index, so the order shows nowhere else.
    members.sort_by_key(|m| std::cmp::Reverse(m.len()));
    let threads = if members.len() > 1 {
        budget().max(1)
    } else {
        1
    };
    let (rendered, _) = fan_out(threads, members.len(), |k| {
        render_key(&c, &blocks, &members[k], platform)
    });
    let mut rendered: Vec<(usize, Result<String, EmitError>)> = members
        .iter()
        .zip(rendered)
        .flat_map(|(m, r)| m.iter().copied().zip(r))
        .collect();
    rendered.sort_unstable_by_key(|&(b, _)| b);
    // The blocks are most of the program: room for them and a sixteenth
    // more for the rest saves the copies of a doubling buffer.
    let blocks_len: usize = rendered
        .iter()
        .map(|(_, r)| r.as_ref().map_or(0, String::len))
        .sum();
    let mut rendered = rendered.into_iter().map(|(_, block)| block);

    let mut out = String::with_capacity(PREAMBLE.len() + blocks_len + blocks_len / 16 + 4096);
    out.push_str(PREAMBLE);
    let half = platform.spm_bytes / 2;
    w!(
        &mut out,
        "/* Two streaming SPM partitions of {half} bytes each (§3.1) */\n\
         extern uint8_t __spm_part1[{half}];\nextern uint8_t __spm_part2[{half}];\n\n\
         typedef struct {{ long offset; int size[8]; }} prem_xfer_t;\n\n"
    );
    emit_arrays(&mut out, program);
    w!(&mut out, "\nvoid {}_prem(void) {{\n", program.name);
    emit_body(&c, &starts, &mut out, |_, out, _, _| {
        // The splice claims the loops `find_blocks` found, in its order.
        out.push_str(&rendered.next().expect("one block per claimed loop")?);
        Ok(())
    })?;
    out.push_str("}\n");
    Ok(out)
}

/// The loop that starts each component (by loop id), the first listed if
/// several start the same loop.
pub(crate) type Starts<'a> = HashMap<usize, &'a EmitComponent>;

/// [`Starts`] of `components`.
pub(crate) fn starts(components: &[EmitComponent]) -> Result<Starts<'_>, EmitError> {
    let mut starts = Starts::with_capacity(components.len());
    for ec in components {
        let first = ec.component.levels.first();
        starts
            .entry(first.ok_or(EmitError::EmptyComponent)?.loop_id)
            .or_insert(ec);
    }
    Ok(starts)
}

/// Appends the loops of `nodes` that start a component, in program order,
/// with the indent [`emit_nodes`] writes them at: its recursion without the
/// text, so a claimed loop is not entered.
fn find_blocks<'a>(nodes: &[Node], indent: usize, starts: &Starts<'a>, out: &mut Vec<Block<'a>>) {
    for n in nodes {
        match n {
            Node::Loop(l) => match starts.get(&l.id) {
                Some(&ec) => out.push(Block { ec, indent }),
                None => find_blocks(&l.body, indent + 1, starts, out),
            },
            Node::If(i) => find_blocks(&i.body, indent + 1, starts, out),
            Node::Stmt(_) => {}
        }
    }
}

/// Renders the blocks `members` of one key from one analysis, built for the
/// key's first block. A failed build is every member's error; the first
/// member, the one a program-order splice reports, is the build's own.
///
/// In debug builds the first and every 16th further memo hit of the key
/// rebuild their own analysis and assert it bitwise equal to the shared one
/// (the sampled re-search of `prem_core`'s replays does the same): a
/// fingerprint that misses something the analysis reads fails the tier-1
/// suites, not production.
fn render_key(
    c: &CProgram,
    blocks: &[Block],
    members: &[usize],
    platform: &Platform,
) -> Vec<Result<String, EmitError>> {
    let shared =
        analyze(blocks[members[0]].ec, platform).map_err(|e| EmitError::Infeasible(e.to_string()));
    members
        .iter()
        .enumerate()
        .map(|(hit, &b)| {
            let Block { ec, indent } = blocks[b];
            let analysis = shared.as_ref().map_err(Clone::clone)?;
            if cfg!(debug_assertions) && hit % 16 == 1 {
                let own = analyze(ec, platform);
                assert!(
                    own.is_ok_and(|own| own.bitwise_eq(analysis)),
                    "memoised analysis differs from the component's own"
                );
            }
            let mut out = String::new();
            emit_component(c, ec, analysis, indent, &mut out)?;
            Ok(out)
        })
        .collect()
}

/// The analysis a component's block is written from: its solution under
/// the idle execution model, ranges retained. Per core, the schedule's own
/// `SegmentToSwap` lists, so the emitted swaps are exactly the ones the
/// makespan model prices; execution times play no part. It reads the
/// component only through what its fingerprint encodes, plus the solution
/// and the core count.
fn analyze(ec: &EmitComponent, platform: &Platform) -> Result<ComponentAnalysis, Infeasible> {
    let idle = ExecModel {
        o: vec![0.0; ec.component.depth()],
        w: 0.0,
    };
    ComponentAnalysis::build(&ec.component, &ec.solution, platform.cores, &idle, true)
}

/// Emits the program body at indent 1, each loop in `starts` through
/// `component`.
pub(crate) fn emit_body(
    c: &CProgram,
    starts: &Starts,
    out: &mut String,
    mut component: impl FnMut(&CProgram, &mut String, &EmitComponent, usize) -> Result<(), EmitError>,
) -> Result<(), EmitError> {
    let mut hook = |out: &mut String, l: &Loop, indent: usize| match starts.get(&l.id) {
        Some(ec) => component(c, out, ec, indent).map(|()| true),
        None => Ok(false),
    };
    emit_nodes(c, &c.program.body, 1, &c.identity(), &mut hook, out)
}

/// The body of the innermost loop of `component`: the code its element
/// loops wrap.
pub(crate) fn innermost_body<'c>(
    c: &CProgram<'c>,
    component: &Component,
) -> Result<&'c [Node], EmitError> {
    let id = component
        .levels
        .last()
        .ok_or(EmitError::EmptyComponent)?
        .loop_id;
    c.loops
        .get(id)
        .map(|l| &l.body[..])
        .ok_or(EmitError::MissingLoop(id))
}

/// The outer-loop terms ` + coeff*(v - lo)` of one array dimension. A
/// block writes them in every swap-table entry and range bound, so they are
/// written once per block.
fn outer_terms(c: &CProgram, terms: &[OuterTerm]) -> String {
    let mut out = String::new();
    for t in terms {
        let (coeff, v, lo) = (t.coeff, c.loops.name(t.loop_id), t.lo);
        w!(&mut out, " + {coeff}*({v} - {lo})");
    }
    out
}

/// The lower bound of the canonical range of one array dimension, as a C
/// expression over the tiled-loop variables and outer loop variables (the
/// dimension's `outer` terms): the minimum over the dimension's
/// contributions.
fn range_lo(ec: &EmitComponent, arr: &ArrayUse, dim: usize, outer: &str) -> String {
    let (contribs, out) = (&arr.contribs[dim], &mut String::new());
    // `MIN(MIN(e0, e1), e2)`: the opening `MIN(`s first.
    for _ in 1..contribs.len() {
        out.push_str("MIN(");
    }
    for (i, contrib) in contribs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        int(out, contrib.base.lo);
        let levels = ec.component.levels.iter().zip(&ec.solution.k);
        for (&coef, (lv, k)) in contrib.comp_coeffs.iter().zip(levels) {
            if coef > 0 {
                w!(out, " + {coef}*({}_t*{k})", lv.name);
            } else if coef < 0 {
                // Negative coefficient: the minimum comes from the tile's
                // upper end (clipped at N-1).
                w!(
                    out,
                    " + {coef}*MIN({}, ({}_t+1)*{k} - 1)",
                    lv.count - 1,
                    lv.name
                );
            }
        }
        out.push_str(outer);
        if i > 0 {
            out.push(')');
        }
    }
    std::mem::take(out)
}

/// Writes one swap-table entry: the main-memory element offset of the range
/// origin (§5.3.2) and the range's sizes. The scheduler pinned the outer
/// loops at their first iteration; the symbolic outer expression (`outer`,
/// per dimension) is added to its base.
fn write_swap_entry(out: &mut String, arr: &ArrayUse, range: &[Interval], outer: &[String]) {
    out.push('{');
    let mut stride = 1i64;
    join(out, " + ", (0..arr.dims.len()).rev(), |out, d| {
        out.push('(');
        int(out, range[d].lo);
        out.push_str(&outer[d]);
        out.push_str(")*");
        uint(out, stride as u64);
        stride *= arr.dims[d];
    });
    out.push_str(", {");
    join(out, ", ", range, |out, iv| uint(out, iv.len()));
    out.push_str("}}");
}

/// `[d1][d2]…`: the inner dimensions of a buffer's C type.
fn dims(bbox: &[i64]) -> String {
    let mut out = String::new();
    for &d in bbox {
        out.push('[');
        int(&mut out, d);
        out.push(']');
    }
    out
}

/// Emits one transformed component block from `analysis`, which
/// [`analyze`] built for a component with the same fingerprint and
/// solution. Everything named — arrays, loops, outer-loop terms — and the
/// body are read from `ec` itself; `analysis` supplies only swap lists,
/// ranges and bounding boxes.
///
/// The lines written per array and per swap entry go in through [`cat`]
/// rather than `write!`: they are most of the emitted bytes.
fn emit_component(
    c: &CProgram,
    ec: &EmitComponent,
    analysis: &ComponentAnalysis,
    indent: usize,
    out: &mut String,
) -> Result<(), EmitError> {
    let (comp, sol) = (&ec.component, &ec.solution);
    let (pad, pad1) = (Pad(indent), Pad(indent + 1));
    let depth = comp.depth();
    let threads = sol.threads() as usize;
    let body = innermost_body(c, comp)?;
    let cores: Vec<&CoreAnalysis> = (0..threads).map(|i| analysis.core(i)).collect();
    // An array no segment binds still gets a (one-element) buffer.
    let bboxes: Vec<Vec<i64>> = analysis
        .bounding_boxes
        .iter()
        .map(|bb| bb.iter().map(|&b| b.max(1)).collect())
        .collect();
    let outer: Vec<Vec<String>> = comp
        .arrays
        .iter()
        .map(|arr| arr.outer_terms.iter().map(|t| outer_terms(c, t)).collect())
        .collect();
    let mut prefix = String::new();
    join(&mut prefix, "_", &comp.levels, |s, lv| s.push_str(&lv.name));

    w!(out, "{pad}{{ /* === PREM component (");
    join(out, ", ", &comp.levels, |out, lv| out.push_str(&lv.name));
    w!(out, ") — {sol} on {threads} threads === */\n");
    w!(out, "{pad1}int {prefix}_seg_count = 0;\n");

    // Swap parameter tables: offsets may reference outer loop variables, so
    // the tables live here (inside the enclosing loops), like Listing 3.3.
    for (ai, arr) in comp.arrays.iter().enumerate() {
        let a = &arr.name;
        let lists = || cores.iter().map(|core| &core.swap_lists[ai]);
        let max_swaps = lists().map(Vec::len).max().unwrap_or(0).max(1);
        w!(out, "{pad1}const int {a}_nswap[{threads}] = {{");
        join(out, ", ", lists(), |out, list| uint(out, list.len() as u64));
        w!(
            out,
            "}};\n{pad1}const int {a}_seg_at[{threads}][{max_swaps}] = {{"
        );
        join(out, ", ", lists(), |out, list| {
            out.push('{');
            join(out, ", ", 0..max_swaps, |out, x| {
                uint(out, list.get(x).map_or(0, |entry| entry.seg as u64));
            });
            out.push('}');
        });
        w!(
            out,
            "}};\n{pad1}const prem_xfer_t {a}_swap[{threads}][{max_swaps}] = {{\n"
        );
        for core in &cores {
            // `analyze` retains ranges.
            let ranges = &core.ranges.as_deref().expect("built with retained ranges")[ai];
            pad1.push(out);
            out.push_str("    {");
            // Short rows are padded.
            join(out, ", ", 0..max_swaps, |out, x| match ranges.get(x) {
                Some(range) => write_swap_entry(out, arr, range, &outer[ai]),
                None => out.push_str("{0, {0}}"),
            });
            out.push_str("},\n");
        }
        w!(out, "{pad1}}};\n");
    }

    // Buffer pointers into the two SPM partitions and the rebindable alias.
    // The main-memory base is captured first: the alias below shadows the
    // global array name inside this block.
    let elems: Vec<&str> = comp
        .arrays
        .iter()
        .map(|arr| c.program.array(arr.array).elem.c_name())
        .collect();
    for (arr, elem) in comp.arrays.iter().zip(&elems) {
        let a = arr.name.as_str();
        pad1.push(out);
        cat(out, &[elem, " *", a, "_mem = (", elem, "*)", a, ";\n"]);
    }
    let mut spm_off = 0i64;
    for ((arr, bbox), elem) in comp.arrays.iter().zip(&bboxes).zip(&elems) {
        let (a, inner) = (arr.name.as_str(), &dims(&bbox[1..]));
        for (buf, part) in [("_buf1)", "(__spm_part1 + "), ("_buf2)", "(__spm_part2 + ")] {
            pad1.push(out);
            cat(
                out,
                &[
                    elem, " (*", a, buf, inner, " = (", elem, " (*)", inner, ")", part,
                ],
            );
            int(out, spm_off);
            out.push_str(");\n");
        }
        pad1.push(out);
        cat(out, &[elem, " (*", a, ")", inner, " = ", a, "_buf1;\n"]);
        spm_off += arr.elem_bytes * bbox.iter().product::<i64>();
    }

    // BUFFER_ALLOC_APIS: allocations, first swaps, dispatch.
    w!(out, "{pad1}/* BUFFER_ALLOC_APIS (§3.5) */\n");
    for arr in &comp.arrays {
        let a = arr.name.as_str();
        let attr = match arr.attr {
            BufferAttr::Ro => "PREM_RO);\n",
            BufferAttr::Wo => "PREM_WO);\n",
            BufferAttr::Rw => "PREM_RW);\n",
        };
        for part in ["1", "2"] {
            pad1.push(out);
            cat(out, &["int ", a, "_id", part, " = allocate_buffer("]);
            cat(out, &[a, "_buf", part, ", ", attr]);
        }
    }
    for (ai, (arr, bbox)) in comp.arrays.iter().zip(&bboxes).enumerate() {
        // A thread that runs segments but never binds the array (every
        // access guarded away) gets no initial swap. Idle threads keep the
        // unconditional prologue, which the schedule prices for none of its
        // calls.
        let unbound = cores
            .iter()
            .any(|core| core.nseg > 0 && core.swap_lists[ai].is_empty());
        if unbound {
            w!(out, "{pad1}if (0 < {}_nswap[threadID()]) {{\n", arr.name);
        }
        let pad = Pad(indent + 1 + usize::from(unbound));
        emit_swap_call(arr, elems[ai], bbox, Some(0), pad, out);
        if unbound {
            w!(out, "{pad1}}}\n");
        }
    }
    w!(out, "{pad1}dispatch();\n");
    for ((arr, bbox), elem) in comp.arrays.iter().zip(&bboxes).zip(&elems) {
        pad1.push(out);
        cat(out, &["if (1 < ", &arr.name, "_nswap[threadID()]) {\n"]);
        emit_swap_call(arr, elem, bbox, Some(1), Pad(indent + 2), out);
        pad1.push(out);
        out.push_str("}\n");
    }
    for a in comp.arrays.iter().map(|arr| arr.name.as_str()) {
        pad1.push(out);
        cat(
            out,
            &["int ", a, "_cursor = 2; /* next swap entry to issue */\n"],
        );
        pad1.push(out);
        cat(out, &["int ", a, "_rb = 1; /* next rebind entry */\n"]);
    }
    w!(out, "{pad1}end_segment(); /* seg 0 done */\n");

    // Tiled loops with per-thread group bounds (§3.4).
    let (m, z) = (sol.m(comp), sol.z(comp));
    for (j, lv) in comp.levels.iter().enumerate() {
        let (p, n) = (Pad(indent + 1 + j), &lv.name);
        let prod_from_j: i64 = sol.r[j..].iter().product();
        let prod_after_j: i64 = sol.r[j + 1..].iter().product();
        w!(
            out,
            "{p}int g_{n} = (threadID() % {prod_from_j}) / {prod_after_j};\n"
        );
        w!(
            out,
            "{p}for (int {n}_t = g_{n}*{zj}; {n}_t < MIN({mj}, (g_{n}+1)*{zj}); {n}_t++) {{\n",
            zj = z[j],
            mj = m[j]
        );
    }

    // DATA_SWAP_APIS: table-driven cursor form (generalizes the paper's
    // constant-change-stride conditionals, §3.5).
    let inner = Pad(indent + 1 + depth);
    w!(out, "{inner}/* DATA_SWAP_APIS (§3.5) */\n");
    for ((arr, bbox), elem) in comp.arrays.iter().zip(&bboxes).zip(&elems) {
        let a = arr.name.as_str();
        // Rebind the array alias when the upcoming segment starts a new
        // range: the block runs at the seg_count = s-1 boundary of segment s.
        inner.push(out);
        cat(out, &["if (", a, "_rb < ", a, "_nswap[threadID()] && ", a]);
        cat(out, &["_seg_at[threadID()][", a, "_rb] == ", &prefix]);
        out.push_str("_seg_count + 1) {\n");
        inner.push(out);
        cat(
            out,
            &["    ", a, " = (", a, "_rb % 2) ? ", a, "_buf2 : ", a],
        );
        out.push_str("_buf1;\n");
        inner.push(out);
        cat(out, &["    ", a, "_rb++;\n"]);
        inner.push(out);
        out.push_str("}\n");
        // Issue entry x's swap at the end of segment ST(x-1)-1, so the DMA
        // transfers it during segment ST(x-1) (§3.5).
        inner.push(out);
        cat(out, &["if (", a, "_cursor < ", a, "_nswap[threadID()] && "]);
        cat(out, &[&prefix, "_seg_count == ", a, "_seg_at[threadID()]["]);
        cat(out, &[a, "_cursor - 1] - 1) {\n"]);
        emit_swap_call(arr, elem, bbox, None, Pad(indent + 2 + depth), out);
        inner.push(out);
        cat(out, &["    ", a, "_cursor++;\n"]);
        inner.push(out);
        out.push_str("}\n");
    }

    // Element loops, then the subtree under the innermost level with
    // accesses to component arrays rewritten buffer-relative. Each
    // dimension's range lower bound is written once per component.
    emit_element_loops(out, ec, indent + 1 + depth);
    let lows: Vec<Vec<String>> = comp
        .arrays
        .iter()
        .zip(&outer)
        .map(|(arr, outer)| {
            (0..arr.contribs.len())
                .map(|dim| range_lo(ec, arr, dim, &outer[dim]))
                .collect()
        })
        .collect();
    let rewrite = |out: &mut String, array: usize, dim: usize, e: &IdxExpr| {
        let Some(ai) = comp.arrays.iter().position(|a| a.array == array) else {
            return c.idx(out, e);
        };
        out.push('(');
        c.idx(out, e);
        cat(out, &[") - (", &lows[ai][dim], ")"]);
    };
    emit_block(c, body, indent + 1 + 2 * depth, &rewrite, out);

    // Close element loops, end segment, close tiled loops.
    close_loops(out, indent + 1 + depth, depth);
    w!(out, "{inner}{prefix}_seg_count++;\n{inner}end_segment();\n");
    close_loops(out, indent + 1, depth);

    // BUFFER_DEALLOC_APIS.
    w!(out, "{pad1}/* BUFFER_DEALLOC_APIS (§3.5) */\n");
    for a in comp.arrays.iter().map(|arr| arr.name.as_str()) {
        for part in ["_id1);\n", "_id2);\n"] {
            pad1.push(out);
            cat(out, &["deallocate_buffer(", a, part]);
        }
    }
    w!(out, "{pad1}end_segment();\n{pad}}}\n");
    Ok(())
}

/// Opens a component's element loops, outermost at `indent`: each level runs
/// over its tile `[n_t*K, (n_t+1)*K)`, clipped at the loop's end.
pub(crate) fn emit_element_loops(out: &mut String, ec: &EmitComponent, indent: usize) {
    for (j, (lv, &k)) in ec.component.levels.iter().zip(&ec.solution.k).enumerate() {
        let (n, b, s) = (lv.name.as_str(), lv.begin, lv.stride);
        let last = b + s * (lv.count - 1);
        // for (int n = b + s*(n_t*k); n <= MIN(last, b + s*((n_t+1)*k - 1)); n += s) {
        Pad(indent + j).push(out);
        cat(out, &["for (int ", n, " = "]);
        let b_s = |out: &mut String| {
            int(out, b);
            out.push_str(" + ");
            int(out, s);
            out.push_str("*(");
        };
        b_s(out);
        cat(out, &[n, "_t*"]);
        int(out, k);
        cat(out, &["); ", n, " <= MIN("]);
        int(out, last);
        out.push_str(", ");
        b_s(out);
        cat(out, &["(", n, "_t+1)*"]);
        int(out, k);
        cat(out, &[" - 1)); ", n, " += "]);
        int(out, s);
        out.push_str(") {\n");
    }
}

/// Closes `count` nested loops whose outermost sits at `indent`.
pub(crate) fn close_loops(out: &mut String, indent: usize, count: usize) {
    for j in (0..count).rev() {
        Pad(indent + j).push(out);
        out.push_str("}\n");
    }
}

/// Emits one swap call for swap-table entry `at` (`None`: the array's
/// cursor), choosing `swap_buffer`/`swap2d_buffer`/`swapnd_buffer` by
/// dimensionality (Algorithm 3). The entry's successor's parity selects the
/// target buffer.
fn emit_swap_call(
    arr: &ArrayUse,
    elem: &str,
    bbox: &[i64],
    at: Option<usize>,
    pad: Pad,
    out: &mut String,
) {
    let a = arr.name.as_str();
    let n = arr.dims.len();
    // `<a>_swap[threadID()][x]`: the entry, `x` a constant or the cursor.
    let entry = |out: &mut String| {
        cat(out, &[a, "_swap[threadID()]["]);
        match at {
            Some(x) => uint(out, x as u64),
            None => cat(out, &[a, "_cursor"]),
        }
        out.push(']');
    };
    let sizeof = |out: &mut String| cat(out, &[" * sizeof(", elem, ")"]);
    pad.push(out);
    out.push_str(match n {
        1 => "swap_buffer(((",
        2 => "swap2d_buffer(((",
        _ => "swapnd_buffer(((",
    });
    match at {
        Some(x) => uint(out, x as u64 + 1),
        None => cat(out, &[a, "_cursor + 1"]),
    }
    cat(out, &[") % 2) ? ", a, "_id1 : ", a, "_id2, (uint64_t*)(("]);
    cat(out, &[elem, "*)", a, "_mem + "]);
    entry(out);
    out.push_str(".offset), ");
    match n {
        1 => {
            entry(out);
            out.push_str(".size[0]");
            sizeof(out);
        }
        2 => {
            entry(out);
            out.push_str(".size[1]");
            sizeof(out);
            out.push_str(", ");
            entry(out);
            out.push_str(".size[0], ");
            int(out, arr.dims[1]);
            sizeof(out);
            out.push_str(", ");
            int(out, bbox[1]);
            sizeof(out);
        }
        _ => {
            // The innermost size and pitches are in bytes.
            let bytes = |out: &mut String, d: usize| {
                if d == n - 1 {
                    sizeof(out);
                }
            };
            uint(out, n as u64);
            out.push_str(", (const int[]){");
            join(out, ", ", 0..n, |out, d| {
                entry(out);
                out.push_str(".size[");
                uint(out, d as u64);
                out.push(']');
                bytes(out, d);
            });
            out.push_str("}, (const int[]){");
            join(out, ", ", 1..n, |out, d| {
                int(out, arr.dims[d]);
                bytes(out, d);
            });
            out.push_str("}, (const int[]){");
            join(out, ", ", 1..n, |out, d| {
                int(out, bbox[d]);
                bytes(out, d);
            });
            out.push('}');
        }
    }
    out.push_str(");\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use prem_core::{AnalyticCost, LoopTree, OptimizerOptions};
    use std::io::Write;
    use std::process::Command;

    fn emit_for(program: &Program, platform: &Platform) -> String {
        let tree = LoopTree::build(program).unwrap();
        let cost = AnalyticCost::new(program);
        let out = prem_core::optimize_app(
            &tree,
            program,
            platform,
            &cost,
            &OptimizerOptions::default(),
        );
        assert!(out.makespan_ns.is_finite());
        let comps: Vec<EmitComponent> = out
            .components
            .iter()
            .map(|c| EmitComponent {
                component: c.component.clone(),
                solution: c.solution.clone(),
            })
            .collect();
        emit_prem_c(program, &comps, platform).unwrap()
    }

    fn gcc_syntax_check(code: &str) {
        // One file per call: the tests run in parallel in one process.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("prem_emit_{}_{call}.c", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(code.as_bytes()).unwrap();
        drop(f);
        let out = Command::new("gcc")
            .args(["-std=c99", "-fsyntax-only", "-Wall"])
            .arg(&path)
            .output()
            .expect("gcc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        std::fs::remove_file(&path).ok();
        assert!(
            out.status.success(),
            "generated C fails to compile:\n{stderr}\n----\n{code}"
        );
    }

    #[test]
    fn lstm_emission_structure_and_syntax() {
        let program = prem_kernels::LstmConfig {
            nt: 3,
            ns: 24,
            np: 20,
        }
        .build();
        let platform = Platform::default().with_cores(3).with_spm_bytes(8 * 1024);
        let code = emit_for(&program, &platform);
        assert!(code.contains("allocate_buffer"));
        assert!(code.contains("dispatch()"));
        assert!(code.contains("end_segment()"));
        assert!(code.contains("threadID()"));
        assert!(code.contains("DATA_SWAP_APIS"));
        assert!(code.contains("BUFFER_DEALLOC_APIS"));
        assert_eq!(code.matches('{').count(), code.matches('}').count());
        gcc_syntax_check(&code);
    }

    #[test]
    fn cnn_emission_uses_swapnd_for_4d_arrays() {
        let program = prem_kernels::CnnConfig::small().build();
        let platform = Platform::default().with_spm_bytes(8 * 1024);
        let code = emit_for(&program, &platform);
        assert!(code.contains("swapnd_buffer"), "4-D arrays need swapnd");
        assert!(code.contains("out_F_swap"));
        gcc_syntax_check(&code);
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use prem_core::LoopTree;
    use prem_ir::{AssignKind, ElemType, Expr, ProgramBuilder};

    /// Two nests `<tag>_dst[o][i] = <tag>_src[o][i] * 2` under outer loops
    /// `<tag>_o`, tagged `alpha` and `beta`: equal components that differ in
    /// array names, loop names and the loop their outer terms name.
    fn twins() -> (Program, Vec<EmitComponent>) {
        let mut b = ProgramBuilder::new("twins");
        for tag in ["alpha", "beta"] {
            let src = b.array(format!("{tag}_src"), vec![4, 64], ElemType::F32);
            let dst = b.array(format!("{tag}_dst"), vec![4, 64], ElemType::F32);
            let o = b.begin_loop(format!("{tag}_o"), 0, 1, 4);
            let i = b.begin_loop(format!("{tag}_i"), 0, 1, 64);
            let at = vec![IdxExpr::var(o), IdxExpr::var(i)];
            let rhs = Expr::mul(Expr::load(src, at.clone()), Expr::Const(2.0));
            b.stmt(dst, at, AssignKind::Assign, rhs);
            b.end_loop();
            b.end_loop();
        }
        let program = b.finish();
        let tree = LoopTree::build(&program).unwrap();
        let comps = tree
            .roots
            .iter()
            .map(|outer| EmitComponent {
                component: Component::extract(&tree, &program, &[&outer.children[0]]),
                solution: Solution {
                    k: vec![16],
                    r: vec![2],
                },
            })
            .collect();
        (program, comps)
    }

    /// The block a component gets from its own analysis, at the indent of
    /// a loop inside one outer loop.
    fn own_block(program: &Program, ec: &EmitComponent, platform: &Platform) -> String {
        let mut out = String::new();
        let analysis = analyze(ec, platform).unwrap();
        emit_component(&CProgram::new(program), ec, &analysis, 2, &mut out).unwrap();
        out
    }

    #[test]
    fn a_shared_analysis_writes_each_component_under_its_own_names() {
        let (program, comps) = twins();
        let [alpha, beta] = &comps[..] else {
            unreachable!()
        };
        assert_eq!(alpha.component.fingerprint(), beta.component.fingerprint());
        let platform = Platform::default();
        let (a, b) = (
            own_block(&program, alpha, &platform),
            own_block(&program, beta, &platform),
        );
        // The blocks differ in the names and nowhere else; the outer terms
        // name each block's own outer loop.
        assert_ne!(a, b);
        assert_eq!(a.replace("alpha", "beta"), b);
        assert!(b.contains("*(beta_o - 0)"), "{b}");
        // One key, so the emission renders both blocks from alpha's analysis
        // (and, in debug builds, checks beta's own against it).
        for budget in [1, 2] {
            let code = emit_prem_c_with_budget(&program, &comps, &platform, budget).unwrap();
            let (at_a, at_b) = (code.find(&a).unwrap(), code.find(&b).unwrap());
            assert!(at_a < at_b);
        }
    }
}

#[cfg(test)]
mod table_3_2_tests {
    use super::*;
    use prem_core::{Component, LoopTree, Solution};

    /// Table 3.2 of the thesis: the `seg_count → swap input parameters` table
    /// for the `ifog` arrays of the LSTM `(s1_0, p)` component with
    /// `K = (109, 350)`, `R = (3, 1)`: per core, element offsets
    /// (0,109), (218,327), (436,545) with sizes 109 except the last (105).
    #[test]
    fn lstm_swap_table_matches_table_3_2() {
        let program = prem_kernels::LstmConfig {
            nt: 10,
            ns: 650,
            np: 700,
        }
        .build();
        let tree = LoopTree::build(&program).unwrap();
        let t = &tree.roots[0];
        let comp = Component::extract(
            &tree,
            &program,
            &[&t.children[0], &t.children[0].children[0]],
        );
        let ec = EmitComponent {
            component: comp,
            solution: Solution {
                k: vec![109, 350],
                r: vec![3, 1],
            },
        };
        let platform = Platform::default().with_cores(3).with_spm_bytes(4 << 20);
        let mut out = String::new();
        let analysis = analyze(&ec, &platform).unwrap();
        emit_component(&CProgram::new(&program), &ec, &analysis, 0, &mut out).unwrap();

        // i's swap table: 3 thread rows, 2 entries each, offsets and sizes
        // exactly as Table 3.2 (the thesis tabulates them in units of
        // elements; the last range covers rows 545..649 → size 105).
        let table_start = out.find("const prem_xfer_t i_swap[3][2]").expect("i table");
        for row in [
            "{{(0)*1, {109}}, {(109)*1, {109}}},",
            "{{(218)*1, {109}}, {(327)*1, {109}}},",
            "{{(436)*1, {109}}, {(545)*1, {105}}},",
        ] {
            assert!(
                out[table_start..table_start + 400].contains(row),
                "emitted i table does not match Table 3.2 (missing `{row}`):\n{out}"
            );
        }
        // ifog segments swap only at segments 1 and 3 (change stride 2).
        assert!(out.contains("const int i_seg_at[3][2] = {{1, 3}, {1, 3}, {1, 3}};"));
        // U_* and inp_F swap at every segment (change stride 1).
        assert!(out
            .contains("const int U_i_seg_at[3][4] = {{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}};"));
        assert!(out.contains(
            "const int inp_F_seg_at[3][4] = {{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}};"
        ));
    }
}
