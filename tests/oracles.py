"""Brute-force reference implementations used to cross-check the package.

Everything here is deliberately written with plain loops and the math
module, independent of the library's vectorized code paths, so a bug in
the package cannot confirm itself through a shared helper. Distances
square a difference as (a - b) * (a - b), the product cdist forms; a
float ** 2 goes through libm's pow, which can differ in the last bit.
"""

import csv
import io
import math

from mcode.errors import ConfigError, DataError, DomainError


def brute_knn(points, query, k):
    """k nearest indices by full sort on (distance, index)."""
    dists = []
    for i, p in enumerate(points):
        d2 = sum((a - b) * (a - b) for a, b in zip(p, query))
        dists.append((math.sqrt(d2), i))
    dists.sort()
    return [i for _, i in dists[:k]]


def ties_across_cut(points, k, exclude_self=False):
    """Whether each point has more than k points within its k-th smallest
    distance: the (k+1)-th smallest equals the k-th."""
    flags = []
    for i, query in enumerate(points):
        dists = sorted(
            math.sqrt(sum((a - b) * (a - b) for a, b in zip(p, query)))
            for j, p in enumerate(points) if not (exclude_self and j == i))
        flags.append(len(dists) > k and dists[k] == dists[k - 1])
    return flags


def oracle_local_weights(rho_values, points, k):
    """Per-instance reliability weights from explicit neighborhood loops."""
    n = len(rho_values)
    d = len(rho_values[0])
    out = []
    for i in range(n):
        members = sorted(brute_knn(points, points[i], k))
        row = []
        for j in range(d):
            err_sum = 0.0
            for member in members:
                err_sum += 1.0 - rho_values[member][j]
            row.append(k / err_sum)
        out.append(row)
    return out


def oracle_global_weights(rho_values):
    n = len(rho_values)
    d = len(rho_values[0])
    return [n / sum(1.0 - rho_values[i][j] for i in range(n))
            for j in range(d)]


def oracle_score(rho_row, weight_row):
    return -sum(w * math.log(r) for w, r in zip(weight_row, rho_row))


def oracle_lof(points, k, floor=1e-12):
    """LOF from the definitions, with self-excluded tie-inclusive
    neighborhoods and floored reach distances."""
    n = len(points)

    def dist(a, b):
        return math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))

    dmat = [[dist(points[i], points[j]) for j in range(n)] for i in range(n)]
    kdist = []
    neighborhoods = []
    for i in range(n):
        others = sorted(dmat[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        kdist.append(kd)
        neighborhoods.append(
            [j for j in range(n) if j != i and dmat[i][j] <= kd])

    lrd = []
    for i in range(n):
        total = 0.0
        for j in neighborhoods[i]:
            total += max(max(kdist[j], dmat[i][j]), floor)
        lrd.append(len(neighborhoods[i]) / total)

    scores = []
    for i in range(n):
        ratios = [lrd[j] / lrd[i] for j in neighborhoods[i]]
        scores.append(sum(ratios) / len(ratios))
    return scores


def oracle_rank(scores):
    """Indices by descending score, ties by ascending index."""
    return [i for _, i in sorted(((-s, i) for i, s in enumerate(scores)))]


def oracle_tpar(scores, outlier_rows, alert_count):
    top = oracle_rank(scores)[:alert_count]
    return sum(1 for i in top if i in outlier_rows) / alert_count


def oracle_atpar(scores, outlier_rows, max_alert_count):
    values = [oracle_tpar(scores, outlier_rows, a)
              for a in range(1, max_alert_count + 1)]
    return sum(values) / len(values)


def oracle_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def oracle_rho(model, ds):
    """Direct per-instance factor evaluation, bypassing the pipeline."""
    means = model.stats.means
    stds = model.stats.std_devs
    eps = 1e-12
    rows = []
    for idx in range(ds.n):
        x_std = [(ds.X[idx][j] - means[j]) / stds[j] for j in range(ds.m)]
        row = []
        for i, factor in enumerate(model.factors):
            if model.mode == "independent":
                feats = list(x_std)
            else:
                feats = list(x_std) + [float(ds.Y[idx][j])
                                       for j in range(ds.d) if j != i]
            if hasattr(factor, "prob_one"):
                p = factor.prob_one
            else:
                z = factor.intercept
                for w, f in zip(factor.weights, feats):
                    z += w * f
                p = oracle_sigmoid(z)
            p = min(max(p, eps), 1.0 - eps)
            rho = p if ds.Y[idx][i] == 1 else 1.0 - p
            row.append(min(max(rho, eps), 1.0 - eps))
        rows.append(row)
    return rows


def grid_polish(fun, center, half_width, rounds=10, points=41):
    """Minimize a smooth 2-argument-vector function by shrinking grid search.

    Returns the best parameter vector found. Each round lays a grid of
    points^dim over the box around the incumbent and shrinks the box.
    Only meant for 1- or 2-dimensional problems.
    """
    dim = len(center)
    best_x = list(center)
    best_f = fun(best_x)
    width = half_width
    for _ in range(rounds):
        if dim == 1:
            candidates = [[best_x[0] + width * (2 * t / (points - 1) - 1)]
                          for t in range(points)]
        else:
            candidates = []
            for t0 in range(points):
                a = best_x[0] + width * (2 * t0 / (points - 1) - 1)
                for t1 in range(points):
                    b = best_x[1] + width * (2 * t1 / (points - 1) - 1)
                    candidates.append([a, b])
        for cand in candidates:
            f = fun(cand)
            if f < best_f:
                best_f = f
                best_x = cand
        width *= 0.15
    return best_x


def oracle_load_csv(path, n_outputs):
    """(X rows, Y rows, header names or None) of a data CSV, converted
    one field at a time, or the exception load_csv raises for the file,
    with the same message."""
    if not isinstance(n_outputs, int) or n_outputs < 1:
        raise ConfigError(
            f"n_outputs must be a positive integer, got {n_outputs!r}")
    records = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for record in reader:
                blank = all(not f.strip() for f in record)
                if not blank and not record[0].lstrip().startswith("#"):
                    records.append((reader.line_num, record))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a text file: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc

    def number(text):
        try:
            return float(text)
        except ValueError:
            return None

    names = None
    rows = []
    for line_num, record in records:
        if names is None and not rows and \
                any(number(f) is None for f in record):
            names = [f.strip() for f in record]
        else:
            rows.append((line_num, record))
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(rows[0][1])
    if names is not None and len(names) != width:
        raise DataError(f"{path}: header has {len(names)} fields but data "
                        f"rows have {width}")
    for line_num, record in rows:
        if len(record) != width:
            raise DataError(f"{path}: line {line_num}: expected {width} "
                            f"fields, got {len(record)}")
    if n_outputs >= width:
        raise ConfigError(f"n_outputs={n_outputs} leaves no input columns "
                          f"(rows have {width} fields)")
    m = width - n_outputs
    xs, ys = [], []
    for line_num, record in rows:
        x, y = [], []
        for j, text in enumerate(record):
            value = number(text)
            if value is None:
                raise DataError(
                    f"{path}: line {line_num}: non-numeric field {text!r}")
            if j < m:
                if not math.isfinite(value):
                    raise DataError(f"{path}: line {line_num}: non-finite "
                                    f"input value {text!r}")
                x.append(value)
            else:
                if value != 0.0 and value != 1.0:
                    raise DomainError(f"{path}: line {line_num}: output "
                                      f"value {text!r} is not 0 or 1")
                y.append(int(value))
        xs.append(x)
        ys.append(y)
    return xs, ys, names


def oracle_csv_bytes(ds, comments=()):
    """The bytes save_csv writes for ds: each row through csv.writer, a
    repr per input value and an int per output value, encoded as open()
    encodes text."""
    buffer = io.BytesIO()
    with io.TextIOWrapper(buffer, newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(list(ds.input_names) + list(ds.output_names))
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.X[i]]
                            + [int(v) for v in ds.Y[i]])
        fh.flush()
        return buffer.getvalue()
