"""Certified graceful degradation: the geometric fallback.

When a bespoke (``kind="optimal"``) artifact fails load-time
verification it is quarantined — PR 8 turned that into a 503 on exactly
that deployment. This module adds the *principled* alternative that a
generic serving system cannot offer: serve the same-``(n, alpha)``
**geometric** artifact in its place.

Why that is sound, and not a best-effort shim:

* **Privacy is preserved exactly.** The geometric mechanism at the same
  ``alpha`` satisfies the identical ``alpha``-differential-privacy
  constraint the bespoke mechanism was compiled under; the ledger
  charges the same ``alpha`` per release either way, so the per-user
  floor maths is unchanged.
* **Utility degrades only up to the user's own remap.** Gupte and
  Sundararajan (Theorem 1, arXiv:1001.2767) prove the ``alpha``-ratio
  geometric mechanism is *universally optimal for minimax agents*:
  every minimax consumer can post-process the geometric release into a
  mechanism at least as good (for their own loss and side information)
  as any bespoke ``alpha``-private mechanism. The bespoke artifact is
  exactly such a remap baked in server-side — so falling back to the
  geometric release loses nothing a rational agent could not recover
  client-side. Brenner and Nissim (arXiv:1008.0256) show this property
  is special to count queries — which is the only query family this
  server publishes — so the fallback carries a theorem, not a hope.
* **The fallback is itself certificate-verified.** A fallback only
  serves through :meth:`MechanismServer.load_artifact` with
  verification on; a geometric artifact that fails its own pmf-law
  check is not a fallback, it is a second quarantine.

Degraded responses are loud: the response body carries
``"degraded": "geometric"`` plus the originally requested key,
``GET /artifacts`` marks the quarantined entry with ``degraded_to``,
and a burn-style gauge/counter pair
(``repro_serving_degraded_deployments`` /
``repro_serving_degraded_responses_total``) exposes how much traffic
is riding the fallback. The whole layer is opt-in:
``repro serve --degraded=geometric`` (the default ``--degraded=503``
keeps PR 8 behavior).
"""

from __future__ import annotations

from ..release.artifacts import ArtifactSpec

__all__ = ["fallback_spec", "resolve_fallbacks"]


def fallback_spec(spec: ArtifactSpec) -> ArtifactSpec | None:
    """The geometric spec that may stand in for ``spec``, or ``None``.

    Only bespoke artifacts degrade: they are remaps of the geometric
    release (Theorem 2 derivability), so the geometric artifact at the
    same ``(n, alpha)`` dominates them for every minimax agent. A
    quarantined *geometric* artifact has no smaller mechanism to fall
    back to — nothing below it is universally optimal — so it stays a
    503.
    """
    if spec.kind != "optimal":
        return None
    return ArtifactSpec(kind="geometric", n=spec.n, alpha=spec.alpha)


def resolve_fallbacks(server, *, compile_missing: bool = True) -> int:
    """Attach geometric fallbacks to ``server``'s quarantined entries.

    For each quarantined bespoke deployment: prefer the already-loaded
    healthy geometric deployment at the same ``(n, alpha)``; otherwise
    load it from the store; otherwise (``compile_missing``) compile it —
    geometric artifacts are closed-form, zero LP solves, so this is a
    load-time cost only, never a request-path one. Every path lands in
    :meth:`~repro.serving.server.MechanismServer.load_artifact` with
    verification on. Returns the number of fallbacks attached; entries
    whose fallback cannot be produced (or fails verification) keep
    plain-503 semantics.
    """
    attached = 0
    for key, entry in server._quarantined.items():
        if entry.get("fallback_key") is not None:
            attached += 1
            continue
        target = fallback_spec(entry["spec"])
        if target is None:
            continue
        deployment = server._deployments.get(target.key())
        if deployment is None:
            artifact = server.store.get(target)
            if artifact is None and compile_missing:
                try:
                    artifact = server.store.get_or_compile(target)
                except Exception:  # noqa: BLE001 - degrade to plain 503
                    artifact = None
            if artifact is not None:
                try:
                    server.load_artifact(artifact, verify=True)
                except Exception:  # noqa: BLE001 - unverifiable fallback
                    deployment = None
                else:
                    deployment = server._deployments.get(target.key())
        if deployment is None:
            continue
        entry["fallback_key"] = target.key()
        attached += 1
    return attached
