"""The catalogue of the four seeded protocol mutations.

Every verification layer that must catch a broken protocol draws its
defects from :data:`MUTATIONS`.  Each mutation exists in two equivalent
forms:

* ``transform`` — an AST rewrite applied before instrumentation, so
  the mutant is a property of the recompiled source (what a buggy edit
  to ``protocols/`` would look like); ``repro protover --mutate`` must
  catch it statically;
* ``dynamic`` — the per-instance monkeypatch equivalent.  The model
  checker's mutation tests (``tests/test_modelcheck.py``) and the
  sanitizer tests apply it to live protocol instances, and protover
  uses it to replay a concretized counterexample as a modelcheck trace
  on a real (non-shadow) protocol instance.

Every transform asserts that it actually rewrote something, so a
refactor that renames a target method breaks the drill loudly instead
of silently verifying the unmutated source.
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass
from typing import Callable


def _replace_body(
    tree: ast.Module, class_name: str, method: str, body: list[ast.stmt]
) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    item.body = body
                    return True
    return False


def _return_constant(value: object) -> list[ast.stmt]:
    return [ast.Return(value=ast.Constant(value=value))]


def _t_skip_invalidations(module: str, tree: ast.Module) -> ast.Module:
    if module == "mesi":
        assert _replace_body(
            tree, "MesiProtocol", "_invalidate_sharers", _return_constant(0)
        ), "mutation target MesiProtocol._invalidate_sharers not found"
    return tree


def _t_blind_detection(module: str, tree: ast.Module) -> ast.Module:
    if module == "ce":
        for method in ("_check_remote", "_remote_bits_check"):
            assert _replace_body(
                tree, "CeProtocol", method, _return_constant(None)
            ), f"mutation target CeProtocol.{method} not found"
    return tree


def _t_ignore_region_tag(module: str, tree: ast.Module) -> ast.Module:
    """Drop ``_check_remote``'s leading dead-region guard, so conflict
    checks run against bits of already-ended regions."""
    if module != "ce":
        return tree
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "CeProtocol":
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and item.name == "_check_remote"
                ):
                    lead = item.body[0]
                    assert isinstance(lead, ast.If) and "payload.region" in (
                        ast.unparse(lead.test)
                    ), "expected the dead-region guard to lead _check_remote"
                    item.body = item.body[1:]
                    return tree
    raise AssertionError("mutation target CeProtocol._check_remote not found")


def _t_skip_self_invalidation(module: str, tree: ast.Module) -> ast.Module:
    if module == "arc":
        assert _replace_body(
            tree, "ArcProtocol", "_self_invalidate", _return_constant(0)
        ), "mutation target ArcProtocol._self_invalidate not found"
    return tree


# -- dynamic equivalents (per-instance monkeypatches) -------------------------


def _d_skip_invalidations(protocol) -> None:
    protocol._invalidate_sharers = lambda *args, **kwargs: 0


def _d_blind_detection(protocol) -> None:
    protocol._check_remote = lambda *args, **kwargs: None
    protocol._remote_bits_check = lambda *args, **kwargs: None


def _d_ignore_region_tag(protocol) -> None:
    def unguarded(
        self, holder, payload, line, req_core, mask, req_is_write, cycle, via
    ):
        if req_is_write:
            overlap = mask & (payload.read_mask | payload.write_mask)
            first_was_write = bool(mask & payload.write_mask)
        else:
            overlap = mask & payload.write_mask
            first_was_write = True
        if overlap:
            self.report_conflict(
                cycle=cycle, line_addr=line, byte_mask=overlap,
                first_core=holder, first_region=payload.region,
                first_was_write=first_was_write, second_core=req_core,
                second_was_write=req_is_write, detected_by=via,
            )

    protocol._check_remote = types.MethodType(unguarded, protocol)


def _d_skip_self_invalidation(protocol) -> None:
    protocol._self_invalidate = lambda core: 0


@dataclass(frozen=True)
class Mutation:
    """One seeded defect: static rewrite + dynamic replay equivalent."""

    name: str
    summary: str
    #: protover protocol key the defect manifests on
    protocol: str
    #: modelcheck driver key used to replay concretized traces
    replay_key: str
    transform: Callable[[str, ast.Module], ast.Module]
    dynamic: Callable[[object], None]


MUTATIONS: dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            "skip-invalidations",
            "MESI family: write upgrades/misses no longer invalidate S copies",
            protocol="moesi",
            replay_key="mesi",
            transform=_t_skip_invalidations,
            dynamic=_d_skip_invalidations,
        ),
        Mutation(
            "blind-detection",
            "CE family: the eager conflict checks are dropped entirely",
            protocol="ce",
            replay_key="ce",
            transform=_t_blind_detection,
            dynamic=_d_blind_detection,
        ),
        Mutation(
            "ignore-region-tag",
            "CE family: conflicts reported against dead (region-ended) bits",
            protocol="ce",
            replay_key="ce",
            transform=_t_ignore_region_tag,
            dynamic=_d_ignore_region_tag,
        ),
        Mutation(
            "skip-self-invalidation",
            "ARC: acquires no longer invalidate shared lines (stale reads)",
            protocol="arc",
            replay_key="arc",
            transform=_t_skip_self_invalidation,
            dynamic=_d_skip_self_invalidation,
        ),
    )
}
