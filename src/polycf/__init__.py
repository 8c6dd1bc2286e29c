"""Exact arithmetic for continued fractions with polynomial terms.

Builds continued fractions from finite data or polynomial tails, converts
series and products to equivalent fractions, contracts and extends them,
and verifies claimed limits against independently computed constants.

Each public name is imported from its module on first access, so importing
the package, or one module of it, loads no other module.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "cf": "UNDEFINED ApproximantSequence CFSpec CFTail Convergent LimitEstimate approximants"
          " cf_from_json cf_to_json convergents evaluate integer_tail_form similarity_scale"
          " tail_cf term_at to_integer_cf",
    "errors": "DegenerateTerm EmptyRange HypothesisViolation NonIntegerTerms NonzeroW0"
              " NoSuchTerm PoleAtArgument PolycfError RepeatedValue TransformDoesNotExist"
              " UnitTerm UnsupportedConstant ZeroEvenDenominator ZeroFunction"
              " ZeroOddDenominator ZeroPartialNumerator ZeroScaleFactor ZeroTerm ZeroW",
    "poly": "IntPolynomial RationalFunction poly_from_string ratfn_from_string",
    "transforms": "BauerMuirResult ProductSpec SeriesSpec bauer_muir bauer_muir_tail"
                  " bernoulli_from_sequence euler_from_series euler_tail even_part"
                  " extension_bmoe generalized_euler generalized_product odd_part product_to_cf",
    "families": "FamilyMember Hypothesis LimitClaim NamedConstant PRESET_PARAMS build_preset"
                " family_binomial family_e_bauer_muir family_pi family_rational_limit"
                " family_sin_product family_zeta pincherle_family pincherle_poly_family"
                " preset_ids ramanujan_entry13",
    "analysis": "GrowthBound TietzeReport VerificationReport growth_diagnostics"
                " reference_constant tietze_check verify_limit",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
