import ast
import functools
import importlib
import inspect
import pkgutil

import pytest

import distill_lab

MODULES = ["distill_lab"] + sorted(
    f"distill_lab.{m.name}" for m in pkgutil.iter_modules(distill_lab.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [n for n in exports if not hasattr(mod, n)] == []


def test_package_exports_what_it_imports():
    tree = ast.parse(inspect.getsource(distill_lab))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(distill_lab.__all__) == imported | {"__version__"}


# Names the benchmark under perfbench/ binds by name rather than through
# the package's exports, each with the perfbench file that reads it (a
# dotted name is a method of a class); deleting or rebinding one breaks the
# benchmark without failing any other test.
PERFBENCH_BINDINGS = [
    ("denoiser", "predict", "selftest.py RowCounter.RULES"),
    ("denoiser", "cfg_predict", "selftest.py RowCounter.RULES"),
    ("denoiser", "cfg_predict_batch", "selftest.py RowCounter.RULES, worker.py probe_denoiser"),
    ("denoiser", "loss_and_grad", "selftest.py RowCounter.RULES, worker.py probe_denoiser"),
    ("distill", "cfg_predict", "selftest.py check_tracer"),
    ("latentops", "cfg_predict", "selftest.py check_tracer"),
    ("latentops", "invert", "worker.py probe_roundtrip"),
    ("latentops", "generate_with_latents", "worker.py probe_roundtrip"),
    ("config", "load_config", "worker.py Bench, record.py, selftest.py, setup_probe.py"),
    ("cli", "main", "workloads.py run_pass through worker.py Bench"),
    ("denoiser", "load_checkpoint", "worker.py probes, workloads.py _check_train, setup_probe.py"),
    ("config", "ExperimentConfig.build_schedule", "worker.py probes, setup_probe.py"),
    ("config", "ExperimentConfig.build_subsequence", "worker.py probe_roundtrip, setup_probe.py"),
    ("config", "ExperimentConfig.class_params", "worker.py probe_roundtrip"),
]


@pytest.mark.parametrize(
    "module, name, reader", PERFBENCH_BINDINGS, ids=[f"{m}.{n}" for m, n, _ in PERFBENCH_BINDINGS]
)
def test_names_perfbench_binds_still_resolve(module, name, reader):
    mod = importlib.import_module(f"distill_lab.{module}")
    fn = functools.reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."), mod)
    assert callable(fn), f"perfbench/{reader} reads distill_lab.{module}.{name}"


# Kept defined, out of every __all__, until perfbench stops binding them.
COMPATIBILITY_NAMES = [
    ("denoiser", "predict"),
    ("denoiser", "cfg_predict"),
    ("denoiser", "cfg_predict_batch"),
    ("latentops", "generate_with_latents"),
]


def test_public_inference_api_is_eps_and_the_batch_replay():
    from distill_lab import denoiser, latentops

    assert {"eps", "LabelPlan", "loss_and_grad", "train"} <= set(denoiser.__all__)
    assert "generate_with_latents_batch" in latentops.__all__
    assert {"eps", "LabelPlan", "train", "generate_with_latents_batch"} <= set(distill_lab.__all__)
    for module, name in COMPATIBILITY_NAMES:
        mod = importlib.import_module(f"distill_lab.{module}")
        assert name not in mod.__all__, f"{module}.{name}"
        assert name not in distill_lab.__all__ and not hasattr(distill_lab, name), name
        assert (module, name) in [(m, n) for m, n, _ in PERFBENCH_BINDINGS]
        assert callable(getattr(mod, name))


def test_loaded_checkpoint_reads_two_classes(trained_model, tmp_path):
    # perfbench/worker.py probe_denoiser draws labels 1 .. model.num_classes
    # from the model load_checkpoint returns
    from distill_lab.denoiser import load_checkpoint, save_checkpoint

    save_checkpoint(trained_model, tmp_path / "model.ckpt", 1000)
    loaded, _ = load_checkpoint(tmp_path / "model.ckpt")
    assert loaded.num_classes == 2


def test_class_count_attribute_is_the_constant():
    # perfbench/worker.py probe_denoiser reads the class attribute
    # Denoiser.num_classes, which test_names_perfbench_binds_still_resolve
    # cannot pin, since it is not callable
    from distill_lab.denoiser import NUM_CLASSES, Denoiser

    assert Denoiser.num_classes == NUM_CLASSES


def test_perfbench_reimports_are_the_denoiser_function():
    # perfbench/selftest.py (RowCounter, check_tracer) finds the re-imports
    # by identity with denoiser.cfg_predict
    from distill_lab import denoiser, distill, latentops

    assert distill.cfg_predict is denoiser.cfg_predict
    assert latentops.cfg_predict is denoiser.cfg_predict


def _functions_opening_for_writing(tree):
    """Names of the functions in ``tree`` that open a file for writing."""
    names = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
            if name in ("write_text", "write_bytes") or name == "open" and any(
                isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes
            ):
                names.add(fn.name)
    return names


def test_only_the_writers_open_files_for_writing():
    # one CSV writer (experiments.write_csv) and one flat-file writer; a new
    # output file goes through one of them
    opens = {}
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        if writers := _functions_opening_for_writing(tree):
            opens[name] = writers
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "csv" not in imported, name
    assert opens == {
        "distill_lab.experiments": {"write_csv"},
        "distill_lab.flatfile": {"write_flat_file"},
    }


# The text every input rule raises, each from one function: a second raise
# of the same text is the rule stated twice, and the two statements drift.
RULE_MESSAGES = {
    "integer values": "must be an integer or have an integer dtype",
    "label range": "must lie in 0 (null) .. ",
    "known names": "; expected one of ",
    "omega": "omega must be a finite real",
    "count": " must be >= ",
    "positive real": " must be a positive finite real",
    "point rows": ", expected (n, ",
}


def _raise_texts():
    """(module, the literal text of the raised expression) per raise."""
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield name, "".join(c.value for c in ast.walk(node.exc)
                                    if isinstance(c, ast.Constant) and isinstance(c.value, str))


@pytest.mark.parametrize("message", RULE_MESSAGES.values(), ids=RULE_MESSAGES)
def test_each_input_rule_is_raised_from_one_place(message):
    sites = [name for name, text in _raise_texts() if message in text]
    assert len(sites) == 1, sites


def _own_parameter_casts(tree):
    """``function(parameter)`` for each ``int(parameter)`` a function in
    ``tree`` applies to a parameter of its own."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "int"
                        and call.args and getattr(call.args[0], "id", None) in own):
                    yield f"{fn.name}({call.args[0].id})"


def test_no_function_truncates_its_own_parameter():
    # int() truncates 2.5 to 2 and reads True as 1; a size or count passes
    # schedule._check_count instead, whose int() follows its check
    casts = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        casts += [f"{name}.{cast}" for cast in _own_parameter_casts(tree)]
    assert casts == ["distill_lab.schedule._check_count(v)"]
