//! The yardstick: fixed kernels owned by the benchmark, timed next to
//! every measured operation, that turn host times into reference-host
//! times.
//!
//! On a small shared guest, the speed at which a vCPU runs our code
//! swings by up to 2x from one operation to the next and drifts by a
//! quarter over an hour, with no change to the code: another tenant's
//! load on the core behind the vCPU takes its share of the core. A time
//! measured there says as much about the neighbours as about the
//! program. The yardstick is the kind of work the LSTM kernels do, at the
//! size they do it: an fp32 matrix-vector product the size of one IMDB
//! layer's recurrent weights (2048 x 512, 4 MiB, streamed from memory)
//! plus an int8 one the size of one MT layer's (2000 x 500, 1 MB) in the
//! dequantize-on-load panel layout of the repository's int8 kernel,
//! which is bound by the core rather than by memory. It is written here
//! rather than taken from `crates/tensor` so that no change to the
//! repository moves it. Timing it on the same CPU just before and just
//! after an operation measures how fast that CPU ran at the time; the
//! operation's time over the yardstick's, times [`REFERENCE_MS`], is its
//! time on a host of reference speed.

use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 2048;
const COLS: usize = 512;
const I8_ROWS: usize = 2000;
const I8_COLS: usize = 500;
/// Rows per panel of the int8 product, as in the repository's kernel.
const MR: usize = 8;
/// Pairs of products per yardstick reading, after one that warms the caches;
/// their median is the reading.
const REPS: usize = 5;

/// Milliseconds one pair of products takes at reference speed: about
/// the yardstick's median on the 2-vCPU KVM guest (Intel Xeon, AVX-512)
/// the bounds in `BENCHMARK.json` were set on, so reference-host times
/// read close to host times there. The constant only fixes the unit; no
/// comparison between two runs depends on its value.
pub const REFERENCE_MS: f64 = 0.58;

pub struct Yardstick {
    w: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
    /// Int8 codes, panel by panel: column-major within each panel of
    /// [`MR`] rows.
    codes: Vec<i8>,
    scales: [f32; MR],
    /// Every reading taken, for the report.
    readings_ms: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        // Fixed, non-trivial values; the result is never read.
        let w = (0..ROWS * COLS)
            .map(|i| ((i * 7919 % 1013) as f32 - 506.0) * 1e-3)
            .collect();
        let x = (0..COLS)
            .map(|i| ((i * 31 % 97) as f32 - 48.0) * 1e-2)
            .collect();
        let codes = (0..I8_ROWS * I8_COLS)
            .map(|i| ((i * 7919 % 255) as i32 - 127) as i8)
            .collect();
        Self {
            w,
            x,
            y: vec![0.0; ROWS],
            codes,
            scales: [0.01; MR],
            readings_ms: Vec::new(),
        }
    }

    /// Host milliseconds of one pair of products on the calling thread's
    /// CPU: the median of [`REPS`] back-to-back pairs, after one untimed.
    pub fn read_ms(&mut self) -> f64 {
        self.products();
        let mut t = [0.0; REPS];
        for slot in &mut t {
            let t0 = Instant::now();
            self.products();
            *slot = t0.elapsed().as_secs_f64() * 1e3;
        }
        t.sort_by(f64::total_cmp);
        self.readings_ms.push(t[REPS / 2]);
        t[REPS / 2]
    }

    fn products(&mut self) {
        gemv(black_box(&self.w), black_box(&self.x), &mut self.y);
        let x = black_box(&self.x[..I8_COLS]);
        for (panel, out) in black_box(&self.codes)
            .chunks_exact(MR * I8_COLS)
            .zip(self.y.chunks_exact_mut(MR))
        {
            out.copy_from_slice(&panel_gemv_i8(panel, &self.scales, x));
        }
        black_box(&self.y);
    }

    /// Median of the readings taken so far.
    pub fn median_ms(&self) -> f64 {
        crate::host::median(&self.readings_ms)
    }

    pub fn readings(&self) -> usize {
        self.readings_ms.len()
    }
}

/// Speed factor of a host interval bracketed by two yardstick readings:
/// multiply a host time by it to get the reference-host time.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    REFERENCE_MS / (0.5 * (before_ms + after_ms))
}

fn gemv(w: &[f32], x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the CPU supports AVX, checked just above.
        unsafe { gemv_avx(w, x, y) };
        return;
    }
    gemv_portable(w, x, y);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn gemv_avx(w: &[f32], x: &[f32], y: &mut [f32]) {
    gemv_portable(w, x, y);
}

/// Row-major product with eight independent accumulators per row, so the
/// compiler vectorizes it at whatever width the caller enables.
#[inline(always)]
fn gemv_portable(w: &[f32], x: &[f32], y: &mut [f32]) {
    for (row, out) in w.chunks_exact(COLS).zip(y.iter_mut()) {
        let mut acc = [0.0f32; 8];
        for (ws, xs) in row.chunks_exact(8).zip(x.chunks_exact(8)) {
            for k in 0..8 {
                acc[k] += ws[k] * xs[k];
            }
        }
        *out = acc.iter().sum();
    }
}

/// One panel of the int8 product: each code is dequantized on load and
/// accumulated in four column phases, the loop structure of the
/// repository's portable int8 kernel.
fn panel_gemv_i8(panel: &[i8], scales: &[f32; MR], x: &[f32]) -> [f32; MR] {
    let mut acc = [[0.0f32; MR]; 4];
    for (i, cols) in panel.chunks_exact(4 * MR).enumerate() {
        for phase in 0..4 {
            let xv = x[i * 4 + phase];
            let col = &cols[phase * MR..(phase + 1) * MR];
            for (lane, (a, &code)) in acc[phase].iter_mut().zip(col).enumerate() {
                *a += (code as f32 * scales[lane]) * xv;
            }
        }
    }
    let mut sum = [0.0f32; MR];
    for r in 0..MR {
        sum[r] = ((acc[0][r] + acc[1][r]) + acc[2][r]) + acc[3][r];
    }
    sum
}
