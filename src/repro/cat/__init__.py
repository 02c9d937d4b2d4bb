"""A herd-style cat DSL over the shared relational AST."""

from .interp import cat_consistent, check_cat, extend_env
from .models import available_models, load_model
from .parser import CatModel, CatSyntaxError, parse_cat, tokenize
from .unparse import catmodel_to_cat, expr_to_cat

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
