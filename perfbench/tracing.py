"""Per-layer tracing for the traced run.

Wrappers are patched over scinet's public functions and methods for the
length of a traced round and removed afterwards, so the program itself is
unchanged. ``nn`` and ``model`` import the tensor ops by name, so each
wrapper is set in every module namespace that holds the original. Backward
time per op comes from wrapping the rule each op leaves on ``Tape.nodes``
just before ``backward`` sweeps them.

Every span records its self time: its duration minus the spans it called.
The self times of the layer spans (everything except the loop and command
plumbing listed in ``PLUMBING``) should cover the wall time of the top-level
calls; ``coverage_pct`` reports how much they do.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

from scinet import cli, data, metrics, model, nn, tensor, train

MODULES = (tensor, nn, model, train, data, metrics, cli)

POINTWISE = ("add", "sub", "mul", "exp", "tanh", "leaky_relu", "abs_", "mean_all", "sum_all")
LAYOUT = ("slice_time", "interleave_time", "concat_time")
TENSOR_OPS = ("conv1d", "linear") + POINTWISE + LAYOUT

# span -> (owner, attribute); functions are also replaced in every other module holding them
FUNCTIONS = {
    "nn.dropout": (nn, "dropout_forward"),
    "model.split": (model, "split_even_odd"),
    "model.realign": (model, "realign"),
    "model.loss": (model, "compute_loss"),
    "train.fit": (train, "fit"),
    "train.epoch": (train, "train_epoch"),
    "train.validation": (train, "validation_loss"),
    "train.predict_windows": (train, "predict_windows"),
    "train.evaluate": (train, "evaluate"),
    "train.save": (train, "save_checkpoint"),
    "train.load": (train, "load_checkpoint"),
    "data.load_csv": (data, "load_csv"),
    "metrics.pe": (metrics, "permutation_entropy"),
    "metrics.pe_report": (metrics, "pe_report"),
    "metrics.compute_metrics": (metrics, "compute_metrics"),
    "cli.main": (cli, "main"),
    "cli.train": (cli, "cmd_train"),
    "cli.eval": (cli, "cmd_eval"),
    "cli.predict": (cli, "cmd_predict"),
    "cli.pe": (cli, "cmd_pe"),
}
METHODS = {
    "nn.interaction": (nn.InteractionModule, "forward"),
    "nn.decoder": (nn.DecoderLayer, "forward"),
    "model.node": (model._TreeNode, "forward"),
    "model.tree": (model.SCINetTree, "forward"),
    "model.stack": (model.StackedSCINet, "forward"),
    "model.representation": (model.StackedSCINet, "representation"),
    "train.adam": (train.Adam, "step"),
    "data.gather": (data.WindowDataset, "gather"),
}
# spans whose self time is loop or command plumbing, not a layer
PLUMBING = ("train.fit", "train.epoch", "train.validation", "train.predict_windows", "train.evaluate",
           "cli.main", "cli.train", "cli.eval", "cli.pe")
TREE_GLUE = ("model.node", "model.tree", "model.stack", "model.representation", "model.split")


class Tracer:
    """Accumulates self time, inclusive time by caller, and call counts per span."""

    def __init__(self, look_back: int):
        self.stack: list[list] = []  # [span name, seconds spent in child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)  # counts nested calls of a span twice
        self.under: dict[tuple[str, str], float] = defaultdict(float)  # (span, caller) -> inclusive s
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.levels = {look_back >> (k - 1): f"model.level{k}" for k in range(1, int(math.log2(look_back)) + 1)}

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame: list, dt: float) -> None:
        stack = self.stack
        stack.pop()
        name = frame[0]
        self.self_s[name] += dt - frame[1]
        self.incl_s[name] += dt
        self.calls[name] += 1
        if stack:
            parent = stack[-1]
            parent[1] += dt
            self.under[name, parent[0]] += dt
        else:
            self.root_s += dt

    def wrap(self, fn, name=None, name_of=None, after=None):
        enter, leave, clock = self._enter, self._leave, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = enter(name if name_of is None else name_of(args))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, clock() - t0)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _conv_flops(self, args, _result) -> None:
        x, w = args[0].shape, args[1].shape
        self.counts["conv1d.flops"] += 2.0 * x[0] * w[0] * w[1] * w[2] * x[2]

    def _time_rule(self, node) -> None:
        op = node.rule.__qualname__.split(".", 1)[0]
        rule = self.wrap(node.rule, f"tensor.{op}.bwd")
        if op == "conv1d":
            x, w = node.inputs[0].shape, node.inputs[1].shape
            flops = 4.0 * x[0] * w[0] * w[1] * w[2] * x[2]  # weight and input gradients
            counts = self.counts

            def counted(g):
                counts["conv1d.bwd_flops"] += flops
                return rule(g)

            node.rule = counted
        else:
            node.rule = rule

    def _backward(self, original):
        timed = self.wrap(original, "tensor.backward")

        def backward(loss, tape):
            for node in tape.nodes:
                self._time_rule(node)
            self.counts["tape_nodes"] += len(tape.nodes)
            self.counts["backward_calls"] += 1
            return timed(loss, tape)

        return backward

    @contextlib.contextmanager
    def patched(self):
        saved = []

        def replace_everywhere(original, wrapper):
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        for op in TENSOR_OPS:
            original = getattr(tensor, op)
            after = self._conv_flops if op == "conv1d" else None
            replace_everywhere(original, self.wrap(original, f"tensor.{op}", after=after))
        replace_everywhere(tensor.backward, self._backward(tensor.backward))
        for span, (owner, attr) in FUNCTIONS.items():
            original = getattr(owner, attr)
            after = self._count_rows if span == "data.load_csv" else None
            replace_everywhere(original, self.wrap(original, span, after=after))
        for span, (cls, attr) in METHODS.items():
            saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap(cls.__dict__[attr], span))
        block = model.SCIBlock
        saved.append((block, "forward", block.__dict__["forward"]))
        block.forward = self.wrap(block.__dict__["forward"], name_of=lambda args: self.levels[args[1].shape[-1]])
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _count_rows(self, _args, frame) -> None:
        self.counts["load_csv.rows"] += frame.length + frame.rejected_rows

    # ---- per-layer metrics ------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Totals per traced round, in the units BENCHMARK.json names."""
        s = self.self_s

        def per(value):
            return value / rounds

        def total(ops, suffix=""):
            return per(sum(s[f"tensor.{op}{suffix}"] for op in ops))

        conv_s = s["tensor.conv1d"] + s["tensor.conv1d.bwd"]
        conv_flops = self.counts["conv1d.flops"] + self.counts["conv1d.bwd_flops"]
        step_fwd = self.under["model.stack", "train.epoch"] + self.under["model.loss", "train.epoch"]
        out = {
            "tensor.conv1d.fwd_s": (total(["conv1d"]), "s"),
            "tensor.conv1d.bwd_s": (total(["conv1d"], ".bwd"), "s"),
            "tensor.conv1d.calls": (per(self.calls["tensor.conv1d"]), "count"),
            "tensor.conv1d.gflop_per_s": (conv_flops / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s"),
            "tensor.pointwise.fwd_s": (total(POINTWISE), "s"),
            "tensor.pointwise.bwd_s": (total(POINTWISE, ".bwd"), "s"),
            "tensor.linear.fwd_s": (total(["linear"]), "s"),
            "tensor.linear.bwd_s": (total(["linear"], ".bwd"), "s"),
            "tensor.layout.fwd_s": (total(LAYOUT), "s"),
            "tensor.layout.bwd_s": (total(LAYOUT, ".bwd"), "s"),
            "tensor.layout.calls": (per(sum(self.calls[f"tensor.{op}"] for op in LAYOUT)), "count"),
            "tensor.tape_nodes": (self.counts["tape_nodes"] / max(self.counts["backward_calls"], 1), "count"),
            "tensor.backward.self_s": (per(s["tensor.backward"]), "s"),
            "nn.interaction.fwd_s": (per(s["nn.interaction"]), "s"),
            "nn.dropout_s": (per(s["nn.dropout"]), "s"),
            "nn.decoder.fwd_s": (per(s["nn.decoder"]), "s"),
        }
        for k in range(1, 5):
            out[f"model.level{k}.fwd_s"] = (per(s[f"model.level{k}"]), "s")
        out.update({
            "model.tree.fwd_s": (per(sum(s[n] for n in TREE_GLUE)), "s"),
            "model.realign_s": (per(s["model.realign"]), "s"),
            "model.loss_s": (per(s["model.loss"]), "s"),
            "train.step.fwd_s": (per(step_fwd), "s"),
            "train.step.bwd_s": (per(self.under["tensor.backward", "train.epoch"]), "s"),
            "train.adam_s": (per(s["train.adam"]), "s"),
            "train.validation_s": (per(self.incl_s["train.validation"]), "s"),
            "train.predict_windows_s": (per(self.incl_s["train.predict_windows"]), "s"),
            "train.checkpoint.save_s": (per(s["train.save"]), "s"),
            "train.checkpoint.load_s": (per(s["train.load"]), "s"),
            "data.load_csv_s": (per(s["data.load_csv"]), "s"),
            "data.load_csv.rows": (per(self.counts["load_csv.rows"]), "count"),
            "data.gather_s": (per(s["data.gather"]), "s"),
            "metrics.permutation_entropy_s": (per(s["metrics.pe"]), "s"),
            "metrics.pe_report_s": (per(s["metrics.pe_report"]), "s"),
            "metrics.compute_metrics_s": (per(s["metrics.compute_metrics"]), "s"),
            "cli.predict.emit_s": (per(s["cli.predict"]), "s"),
        })
        return out

    def coverage_pct(self) -> float:
        layers = sum(v for name, v in self.self_s.items() if name not in PLUMBING)
        return 100.0 * layers / self.root_s if self.root_s else 0.0
