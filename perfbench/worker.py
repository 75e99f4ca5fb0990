"""Benchmark worker: runs requests against the qentropy package.

    worker.py ready                  import qentropy.cli, print "ready", exit
    worker.py serve [SPANS]          answer JSON-line requests from stdin;
                                     with SPANS, trace and write spans there
    worker.py oneshot SPANS -- ARGV  one traced CLI invocation on real stdout

run.py starts it with PYTHONPATH pointing at the checkout's ``src`` and
BLAS threads pinned to 1. Tracing is installed only when a spans file is
given, so untraced runs never carry wrappers.
"""

import sys


def _bundle_arrays(bundle):
    import numpy as np

    def matrix(parts):
        return np.array(parts["re"]) + 1j * np.array(parts["im"])

    return {
        "spectra": [matrix(m) for m in bundle["spectra"]],
        "joint": matrix(bundle["joint"]),
        "joint_dims": bundle["joint_dims"],
        "kron_factors": bundle["kron_factors"],
        "components": [matrix(m) for m in bundle["components"]],
        "weights": bundle["weights"],
    }


def run_bundle(qe, b):
    """The qudit-spectra request: public library calls only."""
    ops = [qe.make_density(m) for m in b["spectra"]]
    reports = [qe.report(op) for op in ops]
    joint = qe.make_density(b["joint"])
    da, db = b["joint_dims"]
    reduced_a = qe.partial_trace(joint, da, db, "A")
    reduced_b = qe.partial_trace(joint, da, db, "B")
    i, j = b["kron_factors"]
    product = qe.kron(ops[i], ops[j])
    ensemble = qe.Ensemble(tuple(
        qe.EnsembleComponent(w, qe.make_density(m)) for w, m in zip(b["weights"], b["components"])
    ))
    holevo = qe.holevo_quantity(ensemble)
    return {
        "s_n": [r.s_n for r in reports],
        "s_i": [r.s_i for r in reports],
        "s_ab": qe.von_neumann(joint),
        "s_a": qe.von_neumann(reduced_a),
        "s_b": qe.von_neumann(reduced_b),
        "s_product": qe.von_neumann(product),
        "chi": holevo.chi,
        "s_mix": holevo.s_mix,
        "avg": holevo.avg_component_entropy,
    }


def handle(qe, request):
    """Run one request; time only the call into the package."""
    import contextlib
    import io
    import traceback
    from time import perf_counter

    out, err = io.StringIO(), io.StringIO()
    response = {"code": 0, "result": None}
    bundle = _bundle_arrays(request["bundle"]) if "bundle" in request else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if bundle is None:
                response["code"] = qe.cli.main(request["argv"])
            else:
                response["result"] = run_bundle(qe, bundle)
    except Exception:  # reported to run.py, which counts the request failed
        response["code"] = None
        err.write(traceback.format_exc())
    response["ms"] = (perf_counter() - t0) * 1e3
    response["out"] = out.getvalue()
    response["err"] = err.getvalue()
    return response


def serve(spans_path=None):
    import json

    import qentropy
    import qentropy.cli

    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.install()
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if recorder:
            recorder.request = request["id"]
        channel.write(json.dumps(handle(qentropy, request)) + "\n")
        channel.flush()
    if recorder:
        recorder.dump(spans_path)


def oneshot(spans_path, argv):
    import qentropy.cli
    import tracer

    recorder = tracer.install()
    recorder.request = 0
    try:
        code = qentropy.cli.main(argv)
    finally:
        recorder.dump(spans_path)
    return code


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "ready":
        import qentropy.cli  # noqa: F401  (the import is what set-up time measures)

        sys.stdout.write("ready\n")
        return 0
    if mode == "serve":
        serve(argv[1] if len(argv) > 1 else None)
        return 0
    if mode == "oneshot" and len(argv) >= 3 and argv[2] == "--":
        return oneshot(argv[1], argv[3:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
