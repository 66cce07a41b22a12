"""Seeded synthetic table shaped like the census income ("Adult") data.

Writes three files into an output directory:

* ``adult.csv``          -- 48,842 rows in the columns of the bundled
  ``adult.schema.json``; about 7% of rows carry the missing marker ``?``
  so that loading drops them.
* ``adult.schema.json``  -- the schema the program reads the CSV with.
* ``predictions.csv``    -- one seeded score in [0, 1] per row that survives
  the missing-marker drop, in file order.

The same seed gives byte-identical files.  Shape targets: ``sex`` about 67%
Male; 14 occupations; 41 countries with about 90% in one, plus planted rare
countries so that small and empty (country, sex) cells always occur; about
92% zero capital gain; hours per week around 40.  Income depends on capital
gain strongly enough that a model of the Male rows leans on it hardest.

Usage: python3 perfbench/adultgen.py --seed 1 --out DIR [--rows N]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

ROWS = 48_842

SCHEMA = {
    "columns": [
        {"name": "age", "kind": "ordinal"},
        {"name": "workclass", "kind": "categorical"},
        {"name": "education-num", "kind": "ordinal"},
        {"name": "marital-status", "kind": "categorical"},
        {"name": "occupation", "kind": "categorical"},
        {"name": "relationship", "kind": "categorical"},
        {"name": "race", "kind": "categorical"},
        {"name": "sex", "kind": "protected"},
        {"name": "capital-gain", "kind": "numerical", "tags": ["privilege"]},
        {"name": "capital-loss", "kind": "numerical"},
        {"name": "hours-per-week", "kind": "numerical", "tags": ["effort"]},
        {"name": "native-country", "kind": "categorical"},
        {"name": "income", "kind": "target", "positive_label": ">50K"},
    ],
    "missing_marker": "?",
}
COLUMNS = [c["name"] for c in SCHEMA["columns"]]

WORKCLASS = {"Private": .74, "Self-emp-not-inc": .08, "Local-gov": .065,
             "State-gov": .04, "Self-emp-inc": .035, "Federal-gov": .03,
             "Without-pay": .0005, "Never-worked": .0003}
EDUCATION = {1: .002, 2: .005, 3: .01, 4: .02, 5: .015, 6: .03, 7: .04,
             8: .013, 9: .32, 10: .22, 11: .04, 12: .03, 13: .16, 14: .05,
             15: .017, 16: .012}
MARITAL = {"Married-civ-spouse": .46, "Never-married": .33, "Divorced": .136,
           "Separated": .031, "Widowed": .031, "Married-spouse-absent": .013,
           "Married-AF-spouse": .0008}
RACE = {"White": .855, "Black": .096, "Asian-Pac-Islander": .031,
        "Amer-Indian-Eskimo": .01, "Other": .008}
# occupation -> (share among Male rows, share among Female rows)
OCCUPATION = {
    "Craft-repair": (.19, .02), "Exec-managerial": (.13, .10),
    "Prof-specialty": (.13, .15), "Sales": (.12, .11),
    "Machine-op-inspct": (.07, .05), "Transport-moving": (.07, .01),
    "Handlers-cleaners": (.06, .02), "Adm-clerical": (.06, .28),
    "Other-service": (.07, .17), "Farming-fishing": (.045, .005),
    "Tech-support": (.03, .03), "Protective-serv": (.03, .01),
    "Priv-house-serv": (.0005, .015), "Armed-Forces": (.0006, .0),
}
HOME_COUNTRY = "United-States"
# 38 further countries drawn with geometrically falling shares; two more are
# planted below so that every seed has a 1-row and a one-sex country.
OTHER_COUNTRIES = (
    "Mexico", "Philippines", "Germany", "Puerto-Rico", "Canada",
    "El-Salvador", "India", "Cuba", "England", "China", "South", "Jamaica",
    "Italy", "Dominican-Republic", "Japan", "Guatemala", "Poland", "Vietnam",
    "Columbia", "Haiti", "Portugal", "Taiwan", "Iran", "Greece", "Nicaragua",
    "Peru", "Ecuador", "France", "Ireland", "Hong", "Thailand", "Cambodia",
    "Trinadad&Tobago", "Laos", "Yugoslavia", "Scotland", "Honduras",
    "Hungary",
)
PLANTED = (("Holand-Netherlands", "Female"),
           ("Outlying-US(Guam-USVI-etc)", "Male"),
           ("Outlying-US(Guam-USVI-etc)", "Male"))
# Discrete capital-gain and capital-loss amounts, as in the census data,
# which holds about a hundred distinct non-zero gains.
GAIN_LADDER = np.unique(np.round(np.geomspace(114, 41310, 110)))
GAIN_TOP = 99999.0
LOSS_LADDER = np.unique(np.round(np.linspace(155, 4356, 90)))


def _pick(rng: np.random.Generator, table: dict, size: int) -> np.ndarray:
    keys = list(table)
    p = np.array([table[k] for k in keys], dtype=np.float64)
    idx = rng.choice(len(keys), size=size, p=p / p.sum())
    return np.array(keys, dtype=object)[idx]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def make_columns(seed: int, rows: int = ROWS) -> tuple[dict, np.ndarray, np.ndarray]:
    """Column arrays, a score per row, and the mask of rows that carry ``?``."""
    rng = np.random.default_rng(seed)
    n = rows
    male = rng.random(n) < 0.67
    sex = np.where(male, "Male", "Female").astype(object)
    age = np.clip(np.round(17 + rng.gamma(2.2, 9.5, n)), 17, 90)
    edu = _pick(rng, EDUCATION, n).astype(np.float64)
    workclass = _pick(rng, WORKCLASS, n)
    marital = _pick(rng, MARITAL, n)
    married = marital == "Married-civ-spouse"
    race = _pick(rng, RACE, n)

    relationship = _pick(rng, {"Not-in-family": .45, "Own-child": .3,
                               "Unmarried": .2, "Other-relative": .05}, n)
    spouse = np.where(male, "Husband", "Wife")
    relationship = np.where(married, spouse, relationship).astype(object)

    occ_names = list(OCCUPATION)
    occupation = np.empty(n, dtype=object)
    for flag, col in ((True, 0), (False, 1)):
        rows_g = np.flatnonzero(male == flag)
        p = np.array([OCCUPATION[o][col] for o in occ_names])
        occupation[rows_g] = np.array(occ_names, dtype=object)[
            rng.choice(len(occ_names), size=len(rows_g), p=p / p.sum())]

    shares = 0.011 * 0.86 ** np.arange(len(OTHER_COUNTRIES))
    country_p = np.concatenate([[1.0 - shares.sum()], shares])
    country_names = np.array((HOME_COUNTRY,) + OTHER_COUNTRIES, dtype=object)
    country = country_names[rng.choice(len(country_names), size=n, p=country_p)]

    # capital gain: ~92% zero; the chance of a gain and its size rise with
    # education and age, and Male rows hold the larger amounts.
    gain_odds = -2.75 + 0.22 * (edu - 10) + 0.02 * (age - 38) + 0.35 * male
    has_gain = rng.random(n) < _sigmoid(gain_odds)
    rank = rng.normal(0.55 + 0.05 * (edu - 10) + 0.12 * male, 0.22, n)
    rank = np.clip(rank, 0.0, 0.999)
    gain = np.where(has_gain, GAIN_LADDER[(rank * len(GAIN_LADDER)).astype(int)], 0.0)
    gain[has_gain & (rng.random(n) < 0.05)] = GAIN_TOP
    has_loss = rng.random(n) < 0.047
    loss = np.where(has_loss, LOSS_LADDER[rng.integers(0, len(LOSS_LADDER), n)], 0.0)

    hours = np.clip(np.round(rng.normal(39.0 + 3.5 * male, 11.0, n)), 1, 99)
    hours[rng.random(n) < 0.45] = 40.0

    logit = (-3.1 + 0.55 * male + 0.22 * (edu - 10) + 0.03 * (age - 38)
             - 0.0008 * (age - 38) ** 2 + 0.025 * (hours - 40)
             + 1.5 * married
             + np.where(gain >= 7000, 5.0, np.where(gain > 0, 0.6 - 0.9 * ~male, 0.0))
             + 0.4 * (loss > 1800))
    income_pos = rng.random(n) < _sigmoid(logit)
    income = np.where(income_pos, ">50K", "<=50K").astype(object)

    # ~7% of rows lose workclass+occupation or the country to '?'
    missing = rng.random(n) < 0.07
    lose_job = missing & (rng.random(n) < 0.75)
    lose_country = missing & ~lose_job
    # planted rare countries go on rows that are never dropped
    slots = np.flatnonzero(~missing)[:len(PLANTED)]
    for row, (name, who) in zip(slots, PLANTED):
        country[row] = name
        sex[row] = who
    workclass[lose_job] = "?"
    occupation[lose_job] = "?"
    country[lose_country] = "?"

    scores = _sigmoid(0.8 * logit + 0.3 * male + rng.normal(0.0, 1.0, n))
    cols = {
        "age": age, "workclass": workclass, "education-num": edu,
        "marital-status": marital, "occupation": occupation,
        "relationship": relationship, "race": race, "sex": sex,
        "capital-gain": gain, "capital-loss": loss, "hours-per-week": hours,
        "native-country": country, "income": income,
    }
    return cols, scores, missing


def _text(col: np.ndarray) -> list[str]:
    if col.dtype == object:
        return col.tolist()
    return [str(int(v)) for v in col]


def generate(seed: int, out_dir: Path, rows: int = ROWS) -> dict:
    """Write the CSV, schema and predictions; return their paths and sizes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cols, scores, missing = make_columns(seed, rows)
    text = [_text(cols[name]) for name in COLUMNS]
    csv_path = out_dir / "adult.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*text))
    schema_path = out_dir / "adult.schema.json"
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(SCHEMA, fh, indent=2)
        fh.write("\n")
    pred_path = out_dir / "predictions.csv"
    kept_scores = scores[~missing]
    with open(pred_path, "w", encoding="utf-8") as fh:
        fh.write("prediction\n")
        fh.writelines(repr(float(s)) + "\n" for s in kept_scores)
    return {"data": str(csv_path), "schema": str(schema_path),
            "predictions": str(pred_path), "rows": rows,
            "kept": int((~missing).sum())}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--rows", type=int, default=ROWS)
    args = ap.parse_args()
    info = generate(args.seed, Path(args.out), args.rows)
    print(json.dumps(info))


if __name__ == "__main__":
    main()
