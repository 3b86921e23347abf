//! Row-encoded cores: what the lane walk ([`super::CoordinateDelta`]) emits
//! for a walked core of a shift-only context. Such a core's segments fall
//! into few *rows* — the segment's swaps, its batch's transfers, its swap
//! calls and its execution time — so the walk stores each distinct row once
//! and one row id per batch (DESIGN.md, "Rows, not segments"). The fold
//! prices each row once; [`RowCore::analysis`] expands the core into the
//! reference build's [`CoreAnalysis`] for every other reader.

use super::{CoreAnalysis, SwapEntry};
use std::sync::OnceLock;

/// The line structure of one transfer; `lines == 0` marks no transfer
/// (every priced range has at least one line).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Shape {
    pub(crate) lines: i64,
    pub(crate) line_elems: i64,
}

impl Shape {
    /// Whether the shape stands for a transfer.
    #[inline]
    pub(crate) fn is_some(self) -> bool {
        self.lines != 0
    }
}

/// One array's part of a row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Cell {
    /// The range the segment binds — an entry of the array's swap list.
    pub(crate) bind: Shape,
    /// The array's transfers in the batch, in the fold's order: the unload
    /// of the previous range, then the load of the next (batch 1 loads the
    /// first range; batch `nseg + 1` unloads the last two).
    pub(crate) xfers: [Shape; 2],
    /// Whether the segment makes the array's swap call for batch `s + 2`.
    pub(crate) call: bool,
}

/// What a row holds besides its cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RowHead {
    /// Execution time of the segment (unused on the final batch's row).
    pub(crate) exec_ns: f64,
    /// The core's last segment: it deallocates the buffers.
    pub(crate) dealloc: bool,
}

/// A walked core as rows: `ids[j − 1]` is the row of batch / segment `j`
/// for `j` in `1..=nseg + 1`, row `r` is `heads[r]` plus one cell per array
/// at `cells[r · narr..]`.
#[derive(Debug, Clone)]
pub(crate) struct RowCore {
    pub(crate) nseg: usize,
    pub(crate) ids: Vec<u32>,
    pub(crate) heads: Vec<RowHead>,
    pub(crate) cells: Vec<Cell>,
    /// Per array, the swap calls charged to the initialization segment.
    pub(crate) init_calls: Vec<u8>,
    expanded: OnceLock<CoreAnalysis>,
}

impl RowCore {
    /// A core of `nseg` segments from its row ids, rows and initialization
    /// calls.
    pub(crate) fn new(
        nseg: usize,
        ids: Vec<u32>,
        heads: Vec<RowHead>,
        cells: Vec<Cell>,
        init_calls: Vec<u8>,
    ) -> RowCore {
        debug_assert_eq!(ids.len(), nseg + 1);
        debug_assert_eq!(cells.len(), heads.len() * init_calls.len());
        RowCore {
            nseg,
            ids,
            heads,
            cells,
            init_calls,
            expanded: OnceLock::new(),
        }
    }

    /// The cells of row `r`.
    #[inline]
    pub(crate) fn cells(&self, r: usize, narr: usize) -> &[Cell] {
        &self.cells[r * narr..(r + 1) * narr]
    }

    /// The core as the reference build stores it, expanded on first use:
    /// each segment's execution time and, per array, one swap-list entry per
    /// segment whose row binds it. No ranges are retained.
    pub(crate) fn analysis(&self) -> &CoreAnalysis {
        self.expanded.get_or_init(|| {
            let narr = self.init_calls.len();
            let mut swap_lists: Vec<Vec<SwapEntry>> = vec![Vec::new(); narr];
            let mut exec_ns = Vec::with_capacity(self.nseg);
            for (s, &id) in self.ids[..self.nseg].iter().enumerate() {
                let r = id as usize;
                exec_ns.push(self.heads[r].exec_ns);
                for (list, cell) in swap_lists.iter_mut().zip(self.cells(r, narr)) {
                    if cell.bind.is_some() {
                        list.push(SwapEntry {
                            seg: s + 1,
                            lines: cell.bind.lines,
                            line_elems: cell.bind.line_elems,
                        });
                    }
                }
            }
            CoreAnalysis {
                nseg: self.nseg,
                exec_ns,
                swap_lists,
                ranges: None,
            }
        })
    }
}
