//! Device kernels: the cuBLAS/cuDNN stand-ins.
//!
//! Each kernel reads/writes [`DeviceMemory`] buffers and performs the math
//! for real via `hetero-tensor`. Input buffers take read locks, the output
//! takes a write lock — aliasing an input as the output would deadlock, as
//! would in-place GEMM on a real GPU without workspace.
//!
//! All kernels run directly on the locked buffer slices through the
//! slice-level `hetero-tensor` entry points, so the software GPU exercises
//! the exact same runtime-dispatched SIMD microkernels as the host workers —
//! no staging copies, no per-call allocation, and bit-consistent activation
//! math across devices.

use hetero_tensor::{gemm, ops};

use crate::alloc::{BufferId, DeviceMemory};

/// `C ← A·Bᵀ + bias` where A is `m×k`, B is `n×k` and `bias` has `n`
/// entries (forward layer product, bias-add fused into the GEMM store like
/// the host path — no zero-fill, no second pass over `C`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_bias(
    mem: &DeviceMemory,
    a: BufferId,
    b: BufferId,
    bias: BufferId,
    c: BufferId,
    m: usize,
    k: usize,
    n: usize,
) {
    let (ah, bh, biash, ch) = (mem.get(a), mem.get(b), mem.get(bias), mem.get(c));
    let (ar, br, biasr) = (ah.read(), bh.read(), biash.read());
    let mut cw = ch.write();
    assert_eq!(ar.len(), m * k, "A dims");
    assert_eq!(br.len(), n * k, "B dims");
    assert_eq!(biasr.len(), n, "bias dims");
    assert_eq!(cw.len(), m * n, "C dims");
    gemm::par_gemm_nt_bias_slices(1.0, &ar, &br, &biasr, &mut cw, m, k, n);
}

/// `C ← A·B + bias` where A is `m×k`, B is `k×n` and `bias` has `n`
/// entries (layer 0's forward product: its weights are stored `in × out`).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn_bias(
    mem: &DeviceMemory,
    a: BufferId,
    b: BufferId,
    bias: BufferId,
    c: BufferId,
    m: usize,
    k: usize,
    n: usize,
) {
    let (ah, bh, biash, ch) = (mem.get(a), mem.get(b), mem.get(bias), mem.get(c));
    let (ar, br, biasr) = (ah.read(), bh.read(), biash.read());
    let mut cw = ch.write();
    assert_eq!(ar.len(), m * k, "A dims");
    assert_eq!(br.len(), k * n, "B dims");
    assert_eq!(biasr.len(), n, "bias dims");
    assert_eq!(cw.len(), m * n, "C dims");
    gemm::par_gemm_nn_bias_slices(1.0, &ar, &br, &biasr, &mut cw, m, k, n);
}

/// `C ← Aᵀ·B` where A is `k×m` and B is `k×n` (weight gradient).
pub fn gemm_tn(
    mem: &DeviceMemory,
    a: BufferId,
    b: BufferId,
    c: BufferId,
    k: usize,
    m: usize,
    n: usize,
) {
    let (ah, bh, ch) = (mem.get(a), mem.get(b), mem.get(c));
    let (ar, br) = (ah.read(), bh.read());
    let mut cw = ch.write();
    assert_eq!(ar.len(), k * m, "A dims");
    assert_eq!(br.len(), k * n, "B dims");
    assert_eq!(cw.len(), m * n, "C dims");
    gemm::par_gemm_tn_slices(1.0, &ar, &br, 0.0, &mut cw, k, m, n);
}

/// `C ← A·B` where A is `m×k` and B is `k×n` (delta backprop).
pub fn gemm_nn(
    mem: &DeviceMemory,
    a: BufferId,
    b: BufferId,
    c: BufferId,
    m: usize,
    k: usize,
    n: usize,
) {
    let (ah, bh, ch) = (mem.get(a), mem.get(b), mem.get(c));
    let (ar, br) = (ah.read(), bh.read());
    let mut cw = ch.write();
    assert_eq!(ar.len(), m * k, "A dims");
    assert_eq!(br.len(), k * n, "B dims");
    assert_eq!(cw.len(), m * n, "C dims");
    gemm::par_gemm_nn_slices(1.0, &ar, &br, 0.0, &mut cw, m, k, n);
}

/// Element-wise logistic sigmoid, in place (same dispatched kernel the
/// host workers use, so CPU and GPU activations agree bit-for-bit).
pub fn sigmoid(mem: &DeviceMemory, x: BufferId) {
    let xh = mem.get(x);
    let mut xw = xh.write();
    ops::sigmoid_slice(&mut xw);
}

/// Row-wise numerically-stable softmax over an `m×n` buffer, in place.
pub fn softmax_rows(mem: &DeviceMemory, x: BufferId, n: usize) {
    let xh = mem.get(x);
    let mut xw = xh.write();
    assert_eq!(xw.len() % n.max(1), 0, "matrix dims");
    ops::softmax_rows_slice(&mut xw, n);
}

/// `y ← y + alpha·x` over whole buffers (the SGD update kernel).
pub fn axpy(mem: &DeviceMemory, alpha: f32, x: BufferId, y: BufferId) {
    let (xh, yh) = (mem.get(x), mem.get(y));
    let xr = xh.read();
    let mut yw = yh.write();
    assert_eq!(xr.len(), yw.len(), "axpy dims");
    ops::axpy(alpha, &xr, &mut yw);
}

/// Multiply `delta` in place by the sigmoid derivative computed from the
/// stored activation output `a`: `delta ← delta ⊙ a(1-a)`.
pub fn sigmoid_backward(mem: &DeviceMemory, activation: BufferId, delta: BufferId) {
    let (ah, dh) = (mem.get(activation), mem.get(delta));
    let ar = ah.read();
    let mut dw = dh.write();
    assert_eq!(ar.len(), dw.len(), "dims");
    ops::mul_sigmoid_derivative_slice(&ar, &mut dw);
}

/// Column-sum of an `m×n` buffer into a length-`n` buffer (bias gradient).
pub fn col_sum(mem: &DeviceMemory, x: BufferId, out: BufferId, n: usize) {
    let (xh, oh) = (mem.get(x), mem.get(out));
    let xr = xh.read();
    let mut ow = oh.write();
    assert_eq!(ow.len(), n, "output dims");
    ops::col_sum_slice(&xr, n, &mut ow);
}

/// Scale a buffer in place.
pub fn scale(mem: &DeviceMemory, alpha: f32, x: BufferId) {
    let xh = mem.get(x);
    ops::scale(alpha, &mut xh.write());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_tensor::Matrix;

    fn mem() -> DeviceMemory {
        DeviceMemory::new(1 << 24)
    }

    fn upload(mem: &DeviceMemory, data: &[f32]) -> BufferId {
        let b = mem.alloc(data.len()).unwrap();
        mem.get(b).write().copy_from_slice(data);
        b
    }

    #[test]
    fn gemm_nt_bias_matches_host() {
        let m = mem();
        let a = upload(&m, &[1.0, 2.0, 3.0, 4.0]); // 2x2
        let b = upload(&m, &[1.0, 0.0, 0.0, 1.0]); // 2x2 identity (as Bᵀ too)
        let bias = upload(&m, &[1.0, -1.0]);
        let c = upload(&m, &[f32::NAN; 4]); // overwritten, never read
        gemm_nt_bias(&m, a, b, bias, c, 2, 2, 2);
        assert_eq!(&*m.get(c).read(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn gemm_nn_bias_matches_host() {
        let m = mem();
        let a = upload(&m, &[1.0, 2.0, 3.0, 4.0]); // 2x2
        let b = upload(&m, &[0.0, 1.0, 1.0, 0.0]); // 2x2 swap
        let bias = upload(&m, &[1.0, -1.0]);
        let c = upload(&m, &[f32::NAN; 4]); // overwritten, never read
        gemm_nn_bias(&m, a, b, bias, c, 2, 2, 2);
        assert_eq!(&*m.get(c).read(), &[3.0, 0.0, 5.0, 2.0]);
    }

    #[test]
    fn gemm_tn_and_nn_match_host() {
        let dm = mem();
        let a_host = Matrix::from_fn(5, 4, |i, j| (i + 2 * j) as f32 * 0.25);
        let b_host = Matrix::from_fn(5, 3, |i, j| (2 * i + j) as f32 * 0.5);
        let a = upload(&dm, a_host.as_slice());
        let b = upload(&dm, b_host.as_slice());
        let c = dm.alloc(12).unwrap();
        gemm_tn(&dm, a, b, c, 5, 4, 3);
        let mut expect = Matrix::zeros(4, 3);
        gemm::gemm_tn(1.0, &a_host, &b_host, 0.0, &mut expect);
        assert_eq!(&*dm.get(c).read(), expect.as_slice());

        // NN: (4x5)·(5x3)
        let at = a_host.transpose();
        let abuf = upload(&dm, at.as_slice());
        let c2 = dm.alloc(12).unwrap();
        gemm_nn(&dm, abuf, b, c2, 4, 5, 3);
        let mut expect2 = Matrix::zeros(4, 3);
        gemm::gemm_nn(1.0, &at, &b_host, 0.0, &mut expect2);
        assert_eq!(&*dm.get(c2).read(), expect2.as_slice());
    }

    #[test]
    fn sigmoid_kernel() {
        let m = mem();
        let x = upload(&m, &[1.0, -1.0, 1.0, -1.0]);
        sigmoid(&m, x);
        let r = m.get(x).read().clone();
        assert!((r[0] - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-6);
        assert!((r[0] + r[1] - 1.0).abs() < 1e-6); // σ(1)+σ(-1)=1
    }

    #[test]
    fn softmax_rows_normalizes() {
        let m = mem();
        let x = upload(&m, &[1.0, 2.0, 3.0, 10.0, 10.0, 10.0]);
        softmax_rows(&m, x, 3);
        let r = m.get(x).read().clone();
        assert!((r[0..3].iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!((r[3] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn axpy_and_scale() {
        let m = mem();
        let x = upload(&m, &[1.0, 2.0]);
        let y = upload(&m, &[10.0, 10.0]);
        axpy(&m, -0.5, x, y);
        assert_eq!(&*m.get(y).read(), &[9.5, 9.0]);
        scale(&m, 2.0, y);
        assert_eq!(&*m.get(y).read(), &[19.0, 18.0]);
    }

    #[test]
    fn sigmoid_backward_applies_derivative() {
        let m = mem();
        let a = upload(&m, &[0.5, 0.9]);
        let d = upload(&m, &[4.0, 10.0]);
        sigmoid_backward(&m, a, d);
        let r = m.get(d).read().clone();
        assert!((r[0] - 1.0).abs() < 1e-6); // 4 * 0.25
        assert!((r[1] - 0.9).abs() < 1e-5); // 10 * 0.09
    }

    #[test]
    fn col_sum_kernel() {
        let m = mem();
        let x = upload(&m, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3x2
        let o = m.alloc(2).unwrap();
        col_sum(&m, x, o, 2);
        assert_eq!(&*m.get(o).read(), &[9.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "dims")]
    fn dimension_mismatch_panics() {
        let m = mem();
        let a = upload(&m, &[1.0; 4]);
        let b = upload(&m, &[1.0; 4]);
        let bias = upload(&m, &[0.0; 2]);
        let c = m.alloc(5).unwrap();
        gemm_nt_bias(&m, a, b, bias, c, 2, 2, 2);
    }
}
