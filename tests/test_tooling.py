"""The benchmark (perfbench/) reaches into the library by name.  Its per-layer
tracer (perfbench/tracer.py) wraps library functions at the module
attributes named in its WRAPPED table: a name that no longer resolves is
reported as missing there and its metrics vanish.  The driver
(perfbench/run.py) calls library functions and reads report fields: a name
that no longer resolves crashes the run.  So every such name must resolve
here.  The library also holds no `assert` statement, which `python -O` would
strip, raises no error type that is not an `HbsError`, names every RNG
stream it draws from, and takes oracle products only to sample and to verify."""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import hbs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "hbs"
TRACER = PERFBENCH / "tracer.py"
RUN = PERFBENCH / "run.py"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, attr, span_name, _ in tracer.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr} (span {span_name}) is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr} is not callable"


def test_every_benchmark_library_name_resolves():
    # run.py reaches the library through `hbs.<name>`, names imported from hbs
    # modules, modules bound with importlib.import_module, and the fields of
    # the report `hbs.storage` returns.  Read as source, not imported: importing
    # it would not touch these names, which it looks up inside functions.
    nodes = list(ast.walk(ast.parse(RUN.read_text(), str(RUN))))
    owners = {"hbs": ("hbs", set(dir(hbs)))}  # local name -> (what, names it has)
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            target, call = ast.unparse(node.targets[0]), node.value
            if ast.unparse(call.func) == "importlib.import_module":
                module = call.args[0].value
                owners[target] = (module, set(dir(importlib.import_module(module))))
            elif ast.unparse(call.func) == "hbs.storage":
                fields = {field.name for field in dataclasses.fields(hbs.StorageReport)}
                owners[target] = ("hbs.StorageReport", fields)
    uses = []  # (what, name, names it has)
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hbs":
            names = set(dir(importlib.import_module(node.module)))
            uses += [(node.module, alias.name, names) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in owners:
                what, names = owners[node.value.id]
                uses.append((what, node.attr, names))
    read = {name for _, name, _ in uses}
    assert {"storage", "build_oracle", "estimate_rel_err", "apply_matrix", "count_madds",
            "total_floats", "floats_per_dof"} <= read, f"scan of {RUN.name} found only {read}"
    for what, name, names in uses:
        assert name in names, f"{RUN.name} reads {what}.{name}, which is gone"


def test_benchmark_power_iterations_match_the_library_default():
    # run.py keeps its own POWER_ITERS beside hbs.linalg's; read as source, like
    # the test above, so the two cannot drift apart unseen
    values = [
        ast.literal_eval(node.value)
        for node in ast.parse(RUN.read_text(), str(RUN)).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "POWER_ITERS"
    ]
    assert values == [hbs.linalg.POWER_ITERS]


def test_every_product_in_the_sweep_is_counted():
    # flops.matmul counts each product's madds where it runs; an `@` or a
    # np.matmul in the sweep's kernels would run uncounted.  lift_to_parent
    # works on zero-padded stacks and counts real rows by a model instead.
    found, counted = [], 0
    for path in (SRC / "linalg.py", SRC / "compress.py"):
        tree = ast.parse(path.read_text(), str(path))
        lift = [node for node in ast.walk(tree) if getattr(node, "name", "") == "lift_to_parent"]
        exempt = {id(node) for function in lift for node in ast.walk(function)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "matmul":
                counted += 1
            if id(node) in exempt:
                continue
            at_sign = isinstance(getattr(node, "op", None), ast.MatMult)  # `a @ b`, `a @= b`
            if at_sign or isinstance(node, ast.Attribute) and ast.unparse(node) == "np.matmul":
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, f"products that flops.matmul does not count: {found}"
    assert counted >= 10, f"scan found only {counted} counted products"


def test_lapack_is_reached_only_through_the_entry_guard():
    # LAPACK overflows on an unscaled stack near the float64 limit and raises
    # no floating-point flag.  So in hbs.linalg only col, _cholesky and
    # _orthonormalize call it, and col and nullspace read their input only
    # through _unit, which scales each entry by a power of two (and by .shape).
    path = SRC / "linalg.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.linalg")
        for alias in node.names
    }
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    owner = {id(node): name for name, fn in functions.items() for node in ast.walk(fn)}
    calls = [
        (owner.get(id(node), "<module>"), ast.unparse(node.func))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    lapack = [
        (where, func)
        for where, func in calls
        if func in imported or func.startswith("np.linalg.") and func != "np.linalg.norm"
    ]
    kernels = {"col", "_cholesky", "_orthonormalize"}
    names = {"np.linalg.qr", "np.linalg.cholesky", "np.linalg.svd", "dtrtri"}
    assert names <= {func for _, func in lapack}, f"scan found only {lapack}"
    outside = [f"{where}: {func}" for where, func in lapack if where not in kernels]
    assert not outside, f"LAPACK calls outside the guarded kernels: {outside}"
    for name in ("col", "nullspace"):
        fn = functions[name]
        arg = fn.args.args[0].arg
        nodes = list(ast.walk(fn))
        guarded = [
            node for node in nodes
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_unit"
            and ast.unparse(node.args[0]) == arg
        ]
        shape_reads = [node for node in nodes if ast.unparse(node) == f"{arg}.shape"]
        uses = [node for node in nodes if isinstance(node, ast.Name) and node.id == arg]
        assert guarded, f"{name} does not pass {arg} through _unit"
        assert len(uses) == len(guarded) + len(shape_reads), f"{name} reads {arg} unguarded"


def test_the_l2_block_size_is_written_once():
    # linalg.L2_FLOATS and linalg.blocks size every blocked loop (sweep, apply,
    # .hbsf streaming, kernel assembly); a module with a chunk constant or a
    # 64K / 128K float count of its own would let the loops drift apart again
    spellings = {"64 * 1024", "1 << 16", "1 << 17"}
    found, in_linalg = [], []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = []
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
        spelled = [
            f"{path.name}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and ast.unparse(node) in spellings
        ]
        if path.name == "linalg.py":
            in_linalg = spelled
            continue
        found += [f"{path.name} binds {name}" for name in names if "CHUNK" in name] + spelled
    assert len(in_linalg) == 1, f"scan found {in_linalg} in linalg.py"
    assert not found, f"block sizes outside linalg.L2_FLOATS: {found}"


def test_threads_start_only_in_map_blocks():
    # linalg.map_blocks owns the one pool, which lives for one call and runs
    # each block in a copy of the caller's context; a thread or process
    # started anywhere else would lose the sweep's errstate and madd counter.
    # A lock (the oracle's, the madd counter's) starts nothing.
    spawners = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread", "multiprocessing"}
    found, in_map_blocks = [], 0
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        owner = {id(inner): fn.name for fn in functions for inner in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]} | {a.name for a in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if not names & spawners:
                continue
            if path.name == "linalg.py" and owner.get(id(node)) == "map_blocks":
                in_map_blocks += 1
            elif not (path.name == "linalg.py" and isinstance(node, ast.ImportFrom)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert in_map_blocks == 1, "linalg.map_blocks no longer starts the pool"
    assert not found, f"threads or processes started outside linalg.map_blocks: {found}"


def test_only_sampling_and_verification_reach_an_oracle():
    # compress.draw_samples takes compression's probes and bench.estimate_rel_err
    # verification's columns, so the (s, s) probe budget and
    # RunRecord.verify_matvecs account for every oracle product; one taken
    # anywhere else would show in neither
    allowed = {("compress.py", "draw_samples"), ("bench.py", "estimate_rel_err")}
    found, seen = [], set()
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        owner = {id(inner): fn.name for fn in functions for inner in ast.walk(fn)}  # innermost
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in ("apply_batch", "apply_transpose_batch")):
                continue
            where = (path.name, owner.get(id(node), "<module>"))
            if where in allowed:
                seen.add(where)
            else:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)} in {where[1]}")
    assert seen == allowed, f"scan found oracle products only in {seen}"
    assert not found, f"oracle products outside sampling and verification: {found}"


def test_no_assert_in_library():
    # `python -O` strips assert statements, so no check in the library may be one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("**/*.py"))) > 5
    assert not found, f"assert statements in src/hbs: {found}"


def test_library_raises_only_hbs_errors():
    # Every failure reaches the caller as an HbsError, which carries the CLI's
    # label and exit status.  Two raises are exempt: argparse's own error type
    # in the --n-list parser, and re-raising the error `_at_node` builds.
    exempt = {("cli.py", "argparse.ArgumentTypeError"), ("compress.py", "_at_node")}
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        module = importlib.import_module("hbs" if path.stem == "__init__" else f"hbs.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if (path.name, name) in exempt:
                continue
            raised = getattr(module, name, None) if isinstance(exc, ast.Name) else None
            if not (isinstance(raised, type) and issubclass(raised, hbs.HbsError)):
                found.append(f"{path.name}:{node.lineno} raises {name}")
    assert not found, f"raises of a type that is not an HbsError: {found}"


def test_every_rng_stream_is_named():
    # Streams are named constants in hbs.linalg, where two names with one
    # value would show; a number written (or a default left) at a call site
    # would not.
    stream_arg = {"gaussian_matrix": 3, "seeded_rng": 1}  # positional index of `stream`
    calls, found = 0, []
    for path in sorted(SRC.glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func).rsplit(".", 1)[-1]
            if name not in stream_arg:
                continue
            calls += 1
            args = node.args[stream_arg[name] : stream_arg[name] + 1]
            args += [kw.value for kw in node.keywords if kw.arg == "stream"]
            if not args or any(isinstance(arg, ast.Constant) for arg in args):
                found.append(f"{path.name}:{node.lineno}")
    assert calls >= 5, f"scan found only {calls} draws"
    assert not found, f"draws without a named RNG stream: {found}"
