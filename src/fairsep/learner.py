"""Base classifier and the reductions-style constrained trainer.

The constrained trainer follows the exponentiated-gradient scheme: each
fairness notion compiles to one ``Constraints`` record of K linear moment
constraints ``g_k(h) = sum_j w_kj * S_j(h) + c_k <= eps_train`` over prediction
scores, holding each audit term's per-code coefficients w_kj on the per-code
sums S_j of h and of zeta * h (``notions.CodeTable``) stacked into one array;
training alternates a multiplicative multiplier update with a cost-sensitive
best-response fit of the base learner, and returns a mixture over the iterates.

The base learner is a from-scratch l2-regularised logistic regression
(intercept unpenalised) fitted by deterministic Armijo-damped Newton steps
(IRLS) from zero until the loss stops changing, with optional per-row signed
costs: a row with negative cost prefers the positive decision and enters the
loss with weight |cost|.  ``LearnerHP.epochs`` caps the number of Newton
steps.  Fits and predictions read features as a ``dataset.Design`` (a numeric
block plus categorical codes) through its X @ w, X^T r and X^T diag(s) X
products; a plain 2-D array is taken as a design with only a numeric block.
"""

from __future__ import annotations

import logging
import reprlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataset import Design, FeatureEncoder, Table, as_design, encode_features
from .errors import REQUIRED, ConfigError, EncodingError, checked, read_json
from .notions import CodeTable, NotionConfig, cells

log = logging.getLogger(__name__)

ARMIJO = 1e-4  # sufficient-decrease fraction of the predicted decrease
MIN_STEP = 2.0 ** -40
# The kind of each option of LearnerHP and ExpGradHP; the dataclasses hold the defaults.
LEARNER = {"epochs": "an integer >= 1", "l2": "a finite number >= 0", "tol": "a finite number >= 0"}
EXPGRAD = {"max_iter": "an integer >= 1", "eta": "a finite number > 0",
           "lambda_bound": "a finite number > 0", "eps_train": "a finite number >= 0",
           "patience": "an integer >= 1", "base": ("an object", None)}
# The keys of model.json, of each of its members and of its encoder.
MODEL = {"hp": ("an object", REQUIRED), "members": ("a list of objects", REQUIRED),
         "mixture_weights": ("a list of finite numbers", REQUIRED),
         "constraints": ("a list of strings", ()), "trajectory": "a list of objects",
         "best_iterate": "an integer", "max_violation": "a finite number",
         "early_stopped": "a boolean", "notion": ("an object", None),
         "encoder": ("an object", None)}
MEMBER = {"weights": ("a list of finite numbers", REQUIRED),
          "intercept": ("a finite number", REQUIRED), "converged": ("a boolean", REQUIRED),
          "epochs_run": ("an integer", REQUIRED), "final_loss": ("a finite number", REQUIRED)}
ENCODER = {"feature_map": ("a list of [column, level] pairs", REQUIRED),
           "levels": ("an object", REQUIRED), "means": ("an object", REQUIRED),
           "sds": ("an object", REQUIRED), "include_protected": ("a boolean", REQUIRED)}


@dataclass(frozen=True)
class LearnerHP:
    """Base-learner hyperparameters; ``epochs`` caps the Newton steps."""

    epochs: int = 400
    l2: float = 1e-4
    tol: float = 1e-10

    def __post_init__(self):
        checked(vars(self), LEARNER, "learner option")

    @classmethod
    def from_dict(cls, doc: dict) -> "LearnerHP":
        return cls(**checked(doc, LEARNER, "learner option"))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


@dataclass
class BaseLearner:
    """Logistic model over encoded features."""

    weights: np.ndarray
    intercept: float
    converged: bool = True
    epochs_run: int = 0
    final_loss: float = 0.0

    def predict_proba(self, X: Design | np.ndarray) -> np.ndarray:
        X = as_design(X)
        if X.shape[1] != len(self.weights):
            raise EncodingError(f"feature width {X.shape[1]} != model width {len(self.weights)}")
        return _sigmoid(X.matvec(self.weights) + self.intercept)

    def predict(self, X: Design | np.ndarray, cutoff: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= cutoff).astype(np.int64)

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "intercept": float(self.intercept),
            "converged": self.converged,
            "epochs_run": self.epochs_run,
            "final_loss": self.final_loss,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BaseLearner":
        doc = checked(doc, MEMBER, "model member key")
        return cls(weights=np.asarray(doc.pop("weights"), dtype=np.float64), **doc)


def fit_base(
    features: Design | np.ndarray,
    labels: np.ndarray,
    costs: np.ndarray | None = None,
    hp: LearnerHP | None = None,
) -> BaseLearner:
    """Fit the logistic base learner, optionally with per-row signed costs.

    Without costs each row carries weight 1/n toward its own label.  With
    costs, the standard cost-sensitive reduction applies: the row's target is
    1 exactly when its cost is negative, and its loss weight is |cost|.

    The fit is Armijo-damped Newton (IRLS) from zero: each step solves
    ``H d = g`` with H the Hessian of the p-weighted log-loss plus the l2
    term (intercept unpenalised) and halves the step until the loss falls by
    a fixed fraction of the predicted decrease.  ``l2 > 0`` makes H positive
    definite (clipped margins keep the intercept's curvature positive), so
    ``np.linalg.solve`` takes the step; with ``l2 == 0`` collinear columns
    make H singular and ``np.linalg.lstsq`` takes the minimum-norm step.  A
    tiny ``l2`` identifies the scores, not the weights' null-space split.

    ``features`` is a ``Design`` or a plain 2-D array (a design with only a
    numeric block).  The margins are its ``matvec``, the gradient its
    ``rmatvec`` and H its ``gram``, with the intercept as one more categorical
    that every row has.  Each product makes a fixed number of passes over the
    rows and does its categorical work over the distinct code tuples, so no
    n-by-(d+1) copy of the features is made.
    """
    hp = hp or LearnerHP()
    X = as_design(features)
    y = np.asarray(labels, dtype=np.float64)
    if not np.isfinite(X.numeric).all():
        raise ValueError("features must be finite")
    n, d = X.shape
    if costs is None:
        costs = (1.0 - 2.0 * y) / n
    costs = np.asarray(costs, dtype=np.float64)
    if not np.isfinite(costs).all():
        raise ValueError("costs must be finite")
    z = (costs < 0).astype(np.float64)
    u = np.abs(costs)
    total = float(np.sum(u))
    if total > 0:
        p = u / total
    else:
        p = np.full(n, 1.0 / n)

    ones = (np.zeros(X.tuples, np.intp), np.array([d]))  # the intercept: a level all tuples have
    X1 = replace(X, coded=X.coded + (ones,), shape=(n, d + 1))
    ridge = np.append(np.full(d, hp.l2), 0.0)  # the intercept is unpenalised

    def loss_at(w, margin):
        # weighted log-loss; log(1 + e^m) as max(m, 0) + log1p(e^-|m|), np.logaddexp's form
        per_row = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin))) - z * margin
        return float(np.dot(p, per_row)) + 0.5 * hp.l2 * float(np.dot(w[:d], w[:d]))

    w = np.zeros(d + 1)
    margin = np.zeros(n)
    loss = loss_at(w, margin)
    converged = False
    epochs_run = 0
    for epoch in range(hp.epochs):
        epochs_run = epoch + 1
        q = _sigmoid(margin)
        resid, curv = p * (q - z), p * q * (1.0 - q)
        grad = X1.rmatvec(resid) + ridge * w
        hess = X1.gram(curv) + np.diag(ridge)
        step = (np.linalg.solve(hess, grad) if hp.l2 > 0 else  # H positive definite
                np.linalg.lstsq(hess, grad, rcond=None)[0])  # H maybe singular: minimum norm
        slope = float(np.dot(grad, step))
        shift = X1.matvec(step)
        t = 1.0
        prev_loss = loss
        while t >= MIN_STEP:
            w_t, margin_t = w - t * step, margin - t * shift
            loss_t = loss_at(w_t, margin_t)
            if loss_t <= prev_loss - ARMIJO * t * slope:
                w, margin, loss = w_t, margin_t, loss_t
                break
            t *= 0.5
        # no accepted step leaves the loss unchanged, which ends the fit
        if abs(prev_loss - loss) <= hp.tol * max(1.0, abs(loss)):
            converged = True
            break

    if not converged:
        log.warning("base learner stopped at epoch cap %d (loss %.6g)", hp.epochs, loss)
    return BaseLearner(weights=w[:d], intercept=float(w[d]), converged=converged,
                       epochs_run=epochs_run, final_loss=loss)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraints:
    """The notion's K linear constraints on scores, constraint k being
    ``sum(coef[i] * sums[codes[i]] for i with index[i] == k) + offsets[k] <= eps_train``,
    where ``sums`` is ``table``'s per-code sums of h (codes below ``table.counts.size``),
    then of zeta * h; ``names[k]`` names constraint k."""

    names: list[str]
    table: CodeTable
    index: np.ndarray
    codes: np.ndarray
    coef: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    def values(self, h: np.ndarray) -> np.ndarray:
        """All K constraint values at scores h."""
        sums = np.concatenate((self.table.sum(h), self.table.sum(self.table.zeta * h)))
        return np.bincount(self.index, self.coef * sums[self.codes], len(self)) + self.offsets

    def per_code(self, lam: np.ndarray) -> np.ndarray:
        """Each code's multiplier-weighted coefficient: plain codes, then weighted ones."""
        return np.bincount(self.codes, self.coef * lam[self.index], 2 * self.table.counts.size)


def compile_constraints(table: Table, cfg: NotionConfig) -> Constraints:
    """Turn the notion's audit terms into one record of linear constraints on scores.

    Each keeps its term's codes (a weighted side's shifted by the code count) with the
    coefficient left - right, a side's being 1/norm.  T1 becomes a two-sided ``/+`` ``/-``
    pair; T2 (``/effort``) and T3 (``/fpr_cap``), over 1 - h, each become one one-sided
    constraint with offset mass(right) - mass(left), a side's mass being its mean of 1:
    0 but for T3 under literal B, B0/B - 1.  |value| equals the audited term.  A notion
    with no term compiles to no constraint."""
    found = cells(table, cfg, cfg.resolve_thresholds(table))
    mass = (found.counts, found.sum(found.zeta))
    names, codes, coef, offsets = [], [], [], []
    for cell in found.cells:
        for msg in cell.skipped:
            log.info("constraint compile: %s", msg)
        for term in cell.terms:
            sides = ((term.left, 1.0), (term.right, -1.0))
            shifted = [s.codes + found.counts.size * s.zeta for s, _ in sides]
            term_codes, at = np.unique(np.concatenate(shifted), return_inverse=True)
            term_coef = np.bincount(at, np.concatenate([np.full(s.codes.size, sign / s.norm)
                                                        for s, sign in sides]), term_codes.size)
            if term.key == "T1":
                name = f"{cell.label}/parity" if cfg.kind in ("SEP", "CSEP") else cell.label
                names += [f"{name}/+", f"{name}/-"]
                codes += [term_codes, term_codes]
                coef += [term_coef, -term_coef]
                offsets += [0.0, 0.0]
            else:
                names.append(f"{cell.label}/{'effort' if term.key == 'T2' else 'fpr_cap'}")
                codes.append(term_codes)
                coef.append(term_coef)
                offsets.append(term.right.mean(mass) - term.left.mean(mass))
    index = np.repeat(np.arange(len(names)), np.array([c.size for c in codes], np.int64))
    return Constraints(names, found, index, np.concatenate([np.empty(0, np.int64), *codes]),
                       np.concatenate([np.empty(0), *coef]), np.array(offsets))


# ---------------------------------------------------------------------------
# Exponentiated-gradient reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpGradHP:
    max_iter: int = 50
    eta: float = 2.0
    lambda_bound: float = 100.0
    eps_train: float = 0.02
    patience: int = 15
    base: LearnerHP = field(default_factory=LearnerHP)

    def __post_init__(self):
        checked(dict(vars(self), base=None), EXPGRAD, "training option")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExpGradHP":
        doc = checked(doc, EXPGRAD, "training option")
        return cls(**dict(doc, base=LearnerHP.from_dict(doc["base"] or {})))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReducedModel:
    """Mixture of base learners produced by the constrained trainer."""

    members: list[BaseLearner]
    mixture_weights: np.ndarray
    hp: ExpGradHP
    constraint_names: list[str] = field(default_factory=list)
    trajectory: list[dict] = field(default_factory=list)
    best_iterate: int = 0
    max_violation: float = 0.0
    early_stopped: bool = False
    encoder: FeatureEncoder | None = None
    notion: dict | None = None

    def predict_scores(self, X: Design | np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for w, member in zip(self.mixture_weights, self.members):
            out += w * member.predict_proba(X)
        return out

    def to_dict(self) -> dict:
        doc = {
            "members": [m.to_dict() for m in self.members],
            "mixture_weights": [float(w) for w in self.mixture_weights],
            "hp": self.hp.to_dict(),
            "constraints": list(self.constraint_names),
            "trajectory": self.trajectory,
            "best_iterate": self.best_iterate,
            "max_violation": self.max_violation,
            "early_stopped": self.early_stopped,
            "notion": self.notion,
        }
        if self.encoder is not None:
            doc["encoder"] = asdict(self.encoder)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ReducedModel":
        doc = checked(doc, MODEL, "model key")
        hp = ExpGradHP.from_dict(doc.pop("hp"))
        members, mixture = doc.pop("members"), doc.pop("mixture_weights")
        if len(mixture) != len(members):
            raise ConfigError(f"model has {len(members)} members, {len(mixture)} mixture_weights")
        encoder = doc.pop("encoder")
        return cls(members=[BaseLearner.from_dict(m) for m in members],
                   mixture_weights=np.asarray(mixture, dtype=np.float64), hp=hp,
                   constraint_names=list(doc.pop("constraints")),
                   encoder=None if encoder is None else _encoder(encoder), **doc)


def _encoder(doc: dict) -> FeatureEncoder:
    """The model's feature encoder: each numeric feature_map column needs a finite mean and
    an sd > 0, and ``levels`` lists each categorical one's feature_map levels in order."""
    doc = checked(doc, ENCODER, "model encoder key")
    numeric, coded = [], {}
    for name, level in doc["feature_map"]:
        if level is None:
            numeric.append(name)
        else:
            coded.setdefault(name, []).append(level)
    for key, kind in (("means", "a finite number"), ("sds", "a finite number > 0")):
        # entries of columns the feature_map lacks are never read
        checked({name: doc[key][name] for name in numeric if name in doc[key]},
                dict.fromkeys(numeric, (kind, REQUIRED)), f"model encoder {key!r} entry")
    for name, levels in coded.items():
        if doc["levels"].get(name) != levels:
            raise ConfigError(f"model encoder 'levels' of {name!r} must list its feature_map "
                              f"levels in order, got {reprlib.repr(doc['levels'].get(name))}")
    return FeatureEncoder(**doc)


def load_model(path: str | Path) -> ReducedModel:
    return ReducedModel.from_dict(read_json(path, "model"))


def exponentiated_gradient(
    table: Table,
    cfg: NotionConfig | None,
    hp: ExpGradHP | None = None,
    features: Design | np.ndarray | None = None,
    encoder: FeatureEncoder | None = None,
) -> ReducedModel:
    """Train the constrained mixture; with no constraints this is one plain fit.

    Each iteration turns the current multipliers into per-row signed costs,
    fits a cost-sensitive best response, evaluates its constraint values, and
    pushes the multipliers up on violated constraints.  The returned model is
    the uniform mixture over iterates; the feasibility trajectory, best
    iterate, and the mixture's own worst violation are recorded.
    """
    hp = hp or ExpGradHP()
    if features is None:
        features, encoder = encode_features(table)
    X = as_design(features)
    y = table.target.astype(np.float64)
    n = len(y)
    constraints = None if cfg is None else compile_constraints(table, cfg)
    base_costs = (1.0 - 2.0 * y) / n
    notion_doc = None if cfg is None else {"kind": cfg.kind, "protected": cfg.protected}

    if not constraints:
        member = fit_base(X, y, None, hp.base)
        scores = member.predict_proba(X)
        err = float(np.mean((scores >= 0.5) != (y == 1)))
        return ReducedModel(
            members=[member], mixture_weights=np.array([1.0]), hp=hp,
            trajectory=[{"iter": 1, "member_max_violation": 0.0,
                         "mixture_max_violation": 0.0, "member_error": err,
                         "mixture_error": err, "lambda": []}],
            best_iterate=0, max_violation=0.0, encoder=encoder, notion=notion_doc)

    code, zeta, size = constraints.table.code, constraints.table.zeta, constraints.table.counts.size
    theta, mixture_scores = np.zeros(len(constraints)), np.zeros(n)
    members: list[BaseLearner] = []
    trajectory: list[dict] = []
    best_mix_violation, stall, early_stopped = np.inf, 0, False
    best_member = (np.inf, np.inf, 0)  # (max violation, error, index)

    for it in range(1, hp.max_iter + 1):
        shift = max(0.0, float(np.max(theta)))
        expd = np.exp(theta - shift)
        lam = hp.lambda_bound * expd / (np.exp(-shift) + float(np.sum(expd)))
        per_code = constraints.per_code(lam)
        costs = base_costs + per_code[:size][code] + zeta * per_code[size:][code]
        member = fit_base(X, y, costs, hp.base)
        scores = member.predict_proba(X)
        violations = constraints.values(scores) - hp.eps_train
        members.append(member)
        mixture_scores += (scores - mixture_scores) / it
        member_max = float(np.max(violations))
        mix_max = float(np.max(constraints.values(mixture_scores) - hp.eps_train))
        err = float(np.mean((scores >= 0.5) != (y == 1)))
        mix_err = float(np.mean((mixture_scores >= 0.5) != (y == 1)))
        trajectory.append({
            "iter": it, "member_max_violation": member_max,
            "mixture_max_violation": mix_max, "member_error": err,
            "mixture_error": mix_err, "lambda": [float(v) for v in lam],
        })
        if (member_max, err) < best_member[:2]:
            best_member = (member_max, err, it - 1)
        # the running mixture mean always drifts a little, so "progress"
        # must mean a material fraction of the outstanding violation
        stall_tol = max(1e-12, 0.05 * max(best_mix_violation, 0.0))
        improved = not np.isfinite(best_mix_violation) or mix_max < best_mix_violation - stall_tol
        stall = 0 if improved else stall + 1
        best_mix_violation = min(best_mix_violation, mix_max)
        if mix_max <= 0.0 and it >= 5:
            break
        if stall >= hp.patience:
            early_stopped = True
            log.warning("no feasibility progress over %d iterations; stopping "
                        "at iteration %d", hp.patience, it)
            break
        theta = theta + hp.eta * violations

    model = ReducedModel(members, np.full(len(members), 1.0 / len(members)), hp,
                         constraint_names=constraints.names, trajectory=trajectory,
                         best_iterate=best_member[2], early_stopped=early_stopped,
                         encoder=encoder, notion=notion_doc)
    model.max_violation = float(np.max(constraints.values(model.predict_scores(X)) - hp.eps_train))
    return model
