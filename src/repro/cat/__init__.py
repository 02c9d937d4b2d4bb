"""A herd-style cat DSL over the shared relational AST."""

from .. import _lazy_exports

#: module (relative to this package) -> the names exported from it
_EXPORTS = {
    ".interp": ("cat_consistent", "check_cat", "extend_env"),
    ".models": ("available_models", "load_model"),
    ".parser": ("CatModel", "CatSyntaxError", "parse_cat", "tokenize"),
    ".unparse": ("catmodel_to_cat", "expr_to_cat"),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [
    "CatModel",
    "CatSyntaxError",
    "available_models",
    "cat_consistent",
    "catmodel_to_cat",
    "check_cat",
    "expr_to_cat",
    "extend_env",
    "load_model",
    "parse_cat",
    "tokenize",
]
