"""Independent reference implementations used as test oracles.

These deliberately avoid the library's vectorized code paths: plain loops,
BFS flood fill, and brute-force sampling. They are slow and obviously
correct, which is the point.
"""

from collections import deque

import numpy as np

from protoloc import kernels, localization, roi


def conv2d_loops(x, kernels, bias, stride=1, pad=0):
    """Direct triple-nested-loop convolution over one image."""
    h, w, cin = x.shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    xp = np.zeros((h + 2 * pad, w + 2 * pad, cin))
    xp[pad:pad + h, pad:pad + w] = x
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    out = np.zeros((out_h, out_w, cout))
    for i in range(out_h):
        for j in range(out_w):
            for o in range(cout):
                acc = bias[o]
                for a in range(k):
                    for b in range(k):
                        for c in range(cin):
                            acc += xp[i * stride + a, j * stride + b, c] * kernels[a, b, c, o]
                out[i, j, o] = acc
    return out


def conv2d_vjp_loops(x, kernels, stride, pad, grad_out):
    """Adjoint of conv2d_loops over one image, term by term: every product
    xp[y, x, c] * kernels[a, b, c, o] of output cell (i, j, o) sends
    grad_out[i, j, o] back to both factors. Returns (grad_x, grad_kernels,
    grad_bias)."""
    h, w, cin = x.shape
    k = kernels.shape[0]
    cout = kernels.shape[3]
    xp = np.zeros((h + 2 * pad, w + 2 * pad, cin))
    xp[pad:pad + h, pad:pad + w] = x
    grad_xp = np.zeros_like(xp)
    grad_kernels = np.zeros_like(kernels)
    grad_bias = np.zeros(cout)
    out_h, out_w = grad_out.shape[:2]
    for i in range(out_h):
        for j in range(out_w):
            for o in range(cout):
                g = grad_out[i, j, o]
                grad_bias[o] += g
                for a in range(k):
                    for b in range(k):
                        for c in range(cin):
                            grad_kernels[a, b, c, o] += xp[i * stride + a, j * stride + b, c] * g
                            grad_xp[i * stride + a, j * stride + b, c] += kernels[a, b, c, o] * g
    return grad_xp[pad:pad + h, pad:pad + w], grad_kernels, grad_bias


def maxpool2d_vjp_loops(x, grad_out, window):
    """Max-pool adjoint over one batch, cell by cell: each window's gradient
    goes to its first cell in row-major scan order holding the window max."""
    n, h, w, c = x.shape
    grad_x = np.zeros_like(x)
    for i in range(n):
        for ch in range(c):
            for oy in range(h // window):
                for ox in range(w // window):
                    cells = [(oy * window + a, ox * window + b)
                             for a in range(window) for b in range(window)]
                    best = max(x[i, y, xx, ch] for y, xx in cells)
                    y, xx = next(cell for cell in cells if x[i, cell[0], cell[1], ch] == best)
                    grad_x[i, y, xx, ch] = grad_out[i, oy, ox, ch]
    return grad_x


def relu_first_encoder(params, images, grad_fms):
    """Feature maps and flat parameter gradient of the textbook block order,
    conv -> relu -> max-pool with relu on the full-size conv output. The
    relu and its mask are inline and the pool adjoint is the loop oracle,
    so no code is shared with the encoder's fused pool-and-relu adjoint."""
    block_inputs, activations = [], []
    x = images
    for w, b in params.block_views():
        block_inputs.append(x)
        activations.append(np.maximum(kernels.conv2d_batch(x, w, b), 0.0))
        x = kernels.maxpool2d_batch(activations[-1])
    grads = []
    g = grad_fms
    for (w, _), x_in, act in reversed(list(zip(params.block_views(), block_inputs,
                                                activations))):
        g = np.where(act > 0.0, maxpool2d_vjp_loops(act, g, 2), 0.0)
        g, gw, gb = kernels.conv2d_vjp_batch(x_in, w, g)
        grads[:0] = [gw.ravel(), gb]
    return x, np.concatenate(grads)


def flood_fill_components(mask, connectivity=4):
    """All connected components of a boolean mask via BFS, as pixel lists
    in discovery (row-major seed) order."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    if connectivity == 4:
        steps = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        steps = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
                      if (dy, dx) != (0, 0))
    seen = np.zeros_like(mask)
    components = []
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            pixels = []
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            while queue:
                y, x = queue.popleft()
                pixels.append((y, x))
                for dy, dx in steps:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            components.append(pixels)
    return components


def largest_component_oracle(mask, connectivity=4):
    """Largest component; ties go to the earliest-seeded component."""
    components = flood_fill_components(mask, connectivity)
    if not components:
        return None
    sizes = [len(c) for c in components]
    return sorted(components[sizes.index(max(sizes))])  # earliest seed wins ties


def component_box_oracle(mask, connectivity=4):
    """Min/max box of the largest component; the whole plane when the mask
    has no true pixel."""
    pixels = largest_component_oracle(mask, connectivity)
    if pixels is None:
        return (0, 0, mask.shape[0] - 1, mask.shape[1] - 1)
    ys, xs = zip(*pixels)
    return (min(ys), min(xs), max(ys), max(xs))


def bilinear_at(fm, y, x):
    """Clamped 4-neighbor bilinear interpolation, written longhand."""
    h, w, d = fm.shape
    y = min(max(y, 0.0), h - 1.0)
    x = min(max(x, 0.0), w - 1.0)
    y0 = min(int(np.floor(y)), max(h - 2, 0))
    x0 = min(int(np.floor(x)), max(w - 2, 0))
    y1 = min(y0 + 1, h - 1)
    x1 = min(x0 + 1, w - 1)
    wy = y - y0
    wx = x - x0
    out = np.zeros(d)
    for c in range(d):
        out[c] = ((1 - wy) * (1 - wx) * fm[y0, x0, c]
                  + (1 - wy) * wx * fm[y0, x1, c]
                  + wy * (1 - wx) * fm[y1, x0, c]
                  + wy * wx * fm[y1, x1, c])
    return out


def bilinear_resize_gathers(m, out_h, out_w):
    """Half-pixel-center resize as four corner gathers per output pixel:
    blend the top and bottom corner pairs across columns, then the two
    across rows."""
    def axis(n, out):
        v = np.clip((np.arange(out) + 0.5) * (n / out) - 0.5, 0.0, float(n - 1))
        i0 = np.clip(np.floor(v).astype(np.int64), 0, max(n - 2, 0))
        return i0, np.minimum(i0 + 1, n - 1), v - i0

    h, w = m.shape
    ri0, ri1, rw = axis(h, out_h)
    ci0, ci1, cw = axis(w, out_w)
    top = m[np.ix_(ri0, ci0)] * (1.0 - cw) + m[np.ix_(ri0, ci1)] * cw
    bot = m[np.ix_(ri1, ci0)] * (1.0 - cw) + m[np.ix_(ri1, ci1)] * cw
    return top * (1.0 - rw)[:, None] + bot * rw[:, None]


def blob_masks(rng, n, h, w, tau):
    """(n, h, w) masks made like thresholded similarity maps: each plane is
    a random 4 x 4 map, resized by the four-gather formula and kept at or
    above tau times its max; a plane whose max is not positive is empty."""
    masks = np.zeros((n, h, w), dtype=bool)
    for plane in masks:
        up = bilinear_resize_gathers(rng.normal(size=(4, 4)), h, w)
        if up.max() > 0.0:
            plane[...] = up >= tau * up.max()
    return masks


def propose_box_oracle(fm, rep, tau, image_h, image_w, connectivity=4):
    """One map's box, stage by stage: similarity as one matmul against the
    unit representation, the four-gather resize, the threshold against the
    map's max (full-image box when that max is not positive), the BFS
    largest component and its min/max box."""
    up = bilinear_resize_gathers(fm @ (rep / np.linalg.norm(rep)), image_h, image_w)
    mx = up.max()
    if mx <= 0.0:
        return (0, 0, image_h - 1, image_w - 1)
    return component_box_oracle(up >= tau * mx, connectivity)


def iou_oracle(a, b):
    """IoU of two inclusive pixel boxes by painting each on a canvas that
    holds both and counting the pixels of their intersection and union."""
    size = max(a[2], a[3], b[2], b[3]) + 1
    painted = np.zeros((2, size, size), dtype=bool)
    for plane, (y0, x0, y1, x1) in zip(painted, (a, b)):
        plane[y0:y1 + 1, x0:x1 + 1] = True
    return int((painted[0] & painted[1]).sum()) / int((painted[0] | painted[1]).sum())


def roi_align_reference(fm, box, image_extents, grid, samples):
    """Literal loop re-implementation of the stated sample positions.

    The inclusive pixel box becomes the continuous box [y0, y1+1) x
    [x0, x1+1); image coordinates scale to feature coordinates by
    (h/H, w/W); each of grid x grid bins averages samples x samples
    bilinear lookups at regular sub-bin centers, shifted by -0.5 into the
    cell-center frame.
    """
    h, w, d = fm.shape
    image_h, image_w = image_extents
    y0, x0, y1, x1 = box
    fy0, fy1 = y0 * h / image_h, (y1 + 1) * h / image_h
    fx0, fx1 = x0 * w / image_w, (x1 + 1) * w / image_w
    bin_h = (fy1 - fy0) / grid
    bin_w = (fx1 - fx0) / grid
    out = np.zeros((grid, grid, d))
    for gy in range(grid):
        for gx in range(grid):
            acc = np.zeros(d)
            for sy in range(samples):
                for sx in range(samples):
                    py = fy0 + gy * bin_h + (sy + 0.5) * bin_h / samples - 0.5
                    px = fx0 + gx * bin_w + (sx + 0.5) * bin_w / samples - 0.5
                    acc += bilinear_at(fm, py, px)
            out[gy, gx] = acc / (samples * samples)
    return out


def roi_align_dense(fm, box, image_extents, grid, samples=64):
    """Dense-sampling approximation of bin averages (default 64x64 per bin)."""
    return roi_align_reference(fm, box, image_extents, grid, samples)


def _support_weights(fm, box, image_extents, grid, samples):
    """One map's row and column cell weights, read from the per-span cache."""
    (y0, x0, y1, x1), (image_h, image_w) = box, image_extents
    return (roi._cell_weights(int(y0), int(y1), fm.shape[0], image_h, grid, samples),
            roi._cell_weights(int(x0), int(x1), fm.shape[1], image_w, grid, samples))


def refined_reps_loop(s_fms, protos, k, tau, image_hw, grid, samples, connectivity):
    """refined_reps one support at a time: map i is boxed by a stack-of-one
    propose_boxes call against prototype i // k, its RoI feature is
    ay^T FM ax, and class c's representation is the mean of its K features.
    Returns the (N, D) representations and the list of N*K boxes."""
    boxes, feats = [], []
    for i, fm in enumerate(s_fms):
        box, = localization.propose_boxes(fm[None], protos[i // k][None], tau, *image_hw,
                                          connectivity).tolist()
        ay, ax = _support_weights(fm, box, image_hw, grid, samples)
        boxes.append(tuple(box))
        feats.append(np.einsum("i,ijd,j->d", ay, fm, ax))
    reps = [np.mean(feats[c * k:(c + 1) * k], axis=0) for c in range(len(protos))]
    return np.array(reps), boxes


def roi_feature_vjp_loop(fms, boxes, image_extents, grid, samples, grads):
    """roi_feature_vjp one map at a time: outer(ay, ax)[:, :, None] * g."""
    out = []
    for fm, box, g in zip(fms, boxes, grads):
        ay, ax = _support_weights(fm, box, image_extents, grid, samples)
        out.append(np.outer(ay, ax)[:, :, None] * g)
    return np.array(out)


def fd_grad(f, x, step=1e-5):
    """Central finite differences of scalar f over flat vector x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def rel_err(a, b):
    """Norm-based relative error between two gradient vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
