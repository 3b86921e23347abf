//! A host-executable stub of the PREM streaming runtime, used to *run* the
//! generated C on the development machine and compare its results against
//! the interpreter.
//!
//! The stub implements the API of Table 2.1 (+ `swapnd_buffer`) with plain
//! `memcpy`-style strided copies executed eagerly at the call site — legal
//! because a swap call always targets the buffer the *current* segment is
//! not using (double buffering), so the deferred-DMA timing of the real OS
//! does not change the data-flow for a single thread. Multi-threaded
//! generated code needs the real runtime's cross-core phase scheduling, so
//! host execution is restricted to single-thread solutions.

/// C source of the stub runtime plus a `main` that initializes every array
/// with the same deterministic pattern as
/// [`prem_ir::MemStore::patterned`], runs `<kernel>_prem()`, and prints
/// every array element in `%a` hex-float form for exact comparison.
pub fn host_harness_c(spm_bytes: i64) -> String {
    let mut out = String::new();
    out.push_str(RUNTIME_PRELUDE);
    w!(
        &mut out,
        "uint8_t __spm_part1[{0}];\nuint8_t __spm_part2[{0}];\n",
        spm_bytes / 2
    );
    out.push_str("\n/* ---- generated kernel is appended below by the caller ---- */\n");
    out
}

/// The `main` function: deterministic initialization + exact dump.
pub fn host_main_c(program: &prem_ir::Program) -> String {
    let mut out = String::new();
    out.push_str("\nstatic double pattern(uint64_t ai, uint64_t i) {\n");
    out.push_str("    uint64_t h = ai * 0x9e3779b97f4a7c15ULL + i * 0xbf58476d1ce4e5b9ULL;\n");
    out.push_str("    h = (h ^ (h >> 31)) * 0x94d049bb133111ebULL;\n");
    out.push_str("    return ((double)(h >> 11) / 9007199254740992.0) * 2.0 - 1.0;\n");
    out.push_str("}\n\nint main(void) {\n");
    for (ai, a) in program.arrays.iter().enumerate() {
        let len = a.len();
        let elem = a.elem.c_name();
        w!(
            &mut out,
            "    {{ {elem} *p = ({elem}*){name}; for (long i = 0; i < {len}; i++) p[i] = ({elem})pattern({ai}, (uint64_t)i); }}\n",
            name = a.name
        );
    }
    w!(&mut out, "    {}_prem();\n", program.name);
    for a in &program.arrays {
        let len = a.len();
        let elem = a.elem.c_name();
        w!(
            &mut out,
            "    {{ {elem} *p = ({elem}*){name}; for (long i = 0; i < {len}; i++) printf(\"%s %ld %.17g\\n\", \"{name}\", i, (double)p[i]); }}\n",
            name = a.name
        );
    }
    out.push_str("    return 0;\n}\n");
    out
}

/// The runtime stub itself (buffer registry + strided copies).
pub const RUNTIME_PRELUDE: &str = r#"/* Host stub of the PREM streaming runtime (testing only). */
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <stdio.h>
#include <stdlib.h>

#define PREM_MAX_BUFFERS 64

typedef struct {
    uint8_t *spm;          /* SPM-side storage */
    int attr;              /* 0 = RO, 1 = WO, 2 = RW */
    uint64_t *bound;       /* main-memory address currently bound */
    size_t dim;            /* dimensionality of the last bind */
    int size[8];           /* last bind sizes (innermost in bytes) */
    int spitch[8];         /* last bind source pitches */
    int dpitch[8];         /* last bind destination pitches */
} prem_buf_t;

static prem_buf_t prem_bufs[PREM_MAX_BUFFERS];
static int prem_nbufs = 0;
static int prem_tid = 0;

int threadID(void) { return prem_tid; }
void dispatch(void) {}
void end_segment(void) {}

int allocate_buffer(void *dst, int attr) {
    prem_buf_t *b = &prem_bufs[prem_nbufs];
    memset(b, 0, sizeof(*b));
    b->spm = (uint8_t *)dst;
    b->attr = attr;
    return prem_nbufs++;
}

/* Strided copy: `dim` dimensions; size[dim-1] is in bytes, outer sizes in
   elements; pitches give the row strides (bytes for the innermost). */
static void prem_copy(uint8_t *dst, const uint8_t *src, size_t dim,
                      const int *size, const int *dst_pitch, const int *src_pitch) {
    if (dim == 1) {
        memcpy(dst, src, (size_t)size[0]);
        return;
    }
    /* Compute byte strides of each dimension for src and dst. */
    long sstride[8], dstride[8];
    sstride[dim - 2] = src_pitch[dim - 2];
    dstride[dim - 2] = dst_pitch[dim - 2];
    for (long d = (long)dim - 3; d >= 0; d--) {
        sstride[d] = sstride[d + 1] * src_pitch[d];
        dstride[d] = dstride[d + 1] * dst_pitch[d];
    }
    long counters[8] = {0};
    for (;;) {
        long soff = 0, doff = 0;
        for (size_t d = 0; d + 1 < dim; d++) {
            soff += counters[d] * sstride[d];
            doff += counters[d] * dstride[d];
        }
        memcpy(dst + doff, src + soff, (size_t)size[dim - 1]);
        long d = (long)dim - 2;
        for (;;) {
            if (d < 0) return;
            if (++counters[d] < size[d]) break;
            counters[d] = 0;
            d--;
        }
    }
}

static void prem_writeback(prem_buf_t *b) {
    if (b->bound && (b->attr == 1 || b->attr == 2)) {
        prem_copy((uint8_t *)b->bound, b->spm, b->dim, b->size, b->spitch, b->dpitch);
    }
}

static void prem_bind(prem_buf_t *b, uint64_t *src, size_t dim,
                      const int *size, const int *spitch, const int *dpitch) {
    b->bound = src;
    b->dim = dim;
    memcpy(b->size, size, dim * sizeof(int));
    if (dim > 1) {
        memcpy(b->spitch, spitch, (dim - 1) * sizeof(int));
        memcpy(b->dpitch, dpitch, (dim - 1) * sizeof(int));
    }
    /* Fill the buffer from memory for every attribute: RO/RW semantics, and
       hole-safety for WO hulls (see DESIGN.md). */
    prem_copy(b->spm, (const uint8_t *)src, dim, b->size, b->dpitch, b->spitch);
}

void swap_buffer(int id, uint64_t *src, int size) {
    prem_buf_t *b = &prem_bufs[id];
    prem_writeback(b);
    int sz[1] = { size };
    prem_bind(b, src, 1, sz, NULL, NULL);
}

void swap2d_buffer(int id, uint64_t *src, int width, int height, int spitch, int dpitch) {
    prem_buf_t *b = &prem_bufs[id];
    prem_writeback(b);
    int sz[2] = { height, width };
    int sp[1] = { spitch };
    int dp[1] = { dpitch };
    prem_bind(b, src, 2, sz, sp, dp);
}

void swapnd_buffer(int id, uint64_t *src, size_t dim, const int size[],
                   const int spitch[], const int dpitch[]) {
    prem_buf_t *b = &prem_bufs[id];
    prem_writeback(b);
    prem_bind(b, src, dim, size, spitch, dpitch);
}

void deallocate_buffer(int id) {
    prem_buf_t *b = &prem_bufs[id];
    prem_writeback(b);
    b->bound = NULL;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_contains_runtime_and_main() {
        let program = prem_kernels::CnnConfig::small().build();
        let h = host_harness_c(8 * 1024);
        assert!(h.contains("swapnd_buffer"));
        assert!(h.contains("__spm_part1[4096]"));
        let m = host_main_c(&program);
        assert!(m.contains("cnn_prem();"));
        assert!(m.contains("pattern(0,"));
    }
}
