#!/usr/bin/env python3
"""Write the versioned JSON schema documents into docs/schemas/."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DOCS = os.path.join(HERE, "..", "docs", "schemas")

SCHEMA_VERSION = "1"

element_doc = {
    "description": "Canonical element encodings per ring family. Expression "
                   "strings are never accepted, only coefficient data.",
    "LocalizedIntegers": "integer, or string of ASCII digits '-?a' or '-?a/b' in "
                         "lowest terms, b > 0 supported on the inverted primes",
    "TruncatedPadic": "integer in [0, p^N)",
    "TruncatedPowerSeries": "array of exactly M integers in [0, p)",
    "TruncatedBK": "array of exactly M integers in [0, p^N)",
    "TruncatedLambda": "array of exactly M LocalizedIntegers elements",
}

ring_spec = {
    "$id": "truncalg/ring_spec",
    "schema_version": SCHEMA_VERSION,
    "oneOf": [
        {"type": "object",
         "properties": {"family": {"const": "LocalizedIntegers"},
                        "inverted_primes": {"type": "array", "items": {"type": "integer"},
                                            "description": "ascending, duplicate-free primes"}},
         "required": ["family", "inverted_primes"]},
        {"type": "object",
         "properties": {"family": {"const": "TruncatedPadic"},
                        "p": {"type": "integer"}, "N": {"type": "integer", "minimum": 1}},
         "required": ["family", "p", "N"]},
        {"type": "object",
         "properties": {"family": {"const": "TruncatedPowerSeries"},
                        "p": {"type": "integer"}, "M": {"type": "integer", "minimum": 1}},
         "required": ["family", "p", "M"]},
        {"type": "object",
         "properties": {"family": {"const": "TruncatedBK"},
                        "p": {"type": "integer"}, "N": {"type": "integer", "minimum": 1},
                        "M": {"type": "integer", "minimum": 1},
                        "eisenstein": {
                            "type": "object",
                            "properties": {
                                "coefficients": {"type": "array",
                                                 "description": "low-to-high, monic, "
                                                                "degree e entries"},
                                "ramification_e": {"type": "integer", "minimum": 1}},
                            "description": "optional; defaults to z - p"}},
         "required": ["family", "p", "N", "M"]},
        {"type": "object",
         "properties": {"family": {"const": "TruncatedLambda"},
                        "inverted_primes": {"type": "array"},
                        "M": {"type": "integer", "minimum": 1}},
         "required": ["family", "inverted_primes", "M"]},
    ],
    "element_encodings": element_doc,
}

presented_module = {
    "$id": "truncalg/presented_module",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "ring": {"$ref": "truncalg/ring_spec"},
        "generators": {"type": "integer", "minimum": 0},
        "relations": {"type": "array",
                      "description": "row-major; each row has 'generators' "
                                     "canonical elements"}},
    "required": ["ring", "generators", "relations"],
}

module_map = {
    "$id": "truncalg/module_map",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "source": {"$ref": "truncalg/presented_module"},
        "target": {"$ref": "truncalg/presented_module",
                   "description": "same ring as source"},
        "matrix": {"type": "array",
                   "description": "source.generators rows of target.generators "
                                  "elements; acts on the right"}},
    "required": ["source", "target", "matrix"],
}

ses = {
    "$id": "truncalg/ses",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "a": {"$ref": "truncalg/presented_module"},
        "b": {"$ref": "truncalg/presented_module"},
        "c": {"$ref": "truncalg/presented_module"},
        "inject": {"type": "array", "description": "a.generators x b.generators"},
        "surject": {"type": "array", "description": "b.generators x c.generators"}},
    "required": ["a", "b", "c", "inject", "surject"],
    "description": "verified at parse: inject kernel zero, surject cokernel "
                   "zero, image(inject) = kernel(surject)",
}

filtered_complex = {
    "$id": "truncalg/filtered_complex",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "ring": {"$ref": "truncalg/ring_spec",
                 "description": "SNF-capable family"},
        "lo": {"type": "integer"}, "hi": {"type": "integer"},
        "wmin": {"type": "integer"}, "wmax": {"type": "integer"},
        "modules": {"type": "array",
                    "description": "one presented module per degree lo..hi "
                                   "(ring field omitted, inherited)"},
        "differentials": {"type": "array",
                          "description": "matrix of d_i: C_i -> C_{i-1} for "
                                         "i = lo+1..hi"},
        "filtration": {"type": "array",
                       "items": {"type": "object",
                                 "properties": {"degree": {"type": "integer"},
                                                "weight": {"type": "integer"},
                                                "module": {},
                                                "inclusion": {}},
                                 "required": ["degree", "weight", "module",
                                              "inclusion"]},
                       "description": "one entry per degree lo..hi and weight "
                                      "wmin+1..wmax; weight wmin is the whole "
                                      "module, wmax+1 is zero"}},
    "required": ["ring", "lo", "hi", "wmin", "wmax", "modules"],
}

base_change_spec = {
    "$id": "truncalg/base_change_spec",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "description": "ss-basechange's spec; its report covers the identity and "
                   "localized_completion kinds",
    "properties": {
        "kind": {"enum": ["identity", "z_to_zero", "z_to_unit", "frobenius_twist",
                          "lambda_completion", "localized_completion"]},
        "ell": {"type": "integer", "description": "a prime; the completions need it, "
                                                  "and it must not be inverted in "
                                                  "the complex's ring"},
        "unit": {"not": {}, "description": "not read by any base change: refused"},
        "precision_n": {"not": {}, "description": "not read by any base change: refused"}},
    "required": ["kind"],
}

bk_module = {
    "$id": "truncalg/bk_module",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "module": {"$ref": "truncalg/presented_module",
                   "description": "over a TruncatedBK ring"},
        "phi": {"type": "array",
                "description": "generators x generators matrix of the linear "
                               "map out of the Frobenius-twisted presentation"},
        "height_window": {"type": "array", "items": {"type": "integer"},
                          "description": "[s, r] with 0 <= s <= r"},
        "tower": {"description": "optional extension-closure certificate",
                  "$ref": "truncalg/tower"}},
    "required": ["module", "phi"],
}

tower = {
    "$id": "truncalg/tower",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "kind": {"enum": ["mod_s1", "free", "extension"]},
        "bk": {"$ref": "truncalg/bk_module",
               "description": "the module this node certifies; at the top of a "
                              "bk-structure tower, the job's bk"},
        "sub": {"$ref": "truncalg/tower", "description": "over the node's ring"},
        "quot": {"$ref": "truncalg/tower", "description": "over the node's ring"},
        "incl": {"type": "array"},
        "proj": {"type": "array"}},
    "required": ["kind", "bk"],
}

cw_complex = {
    "$id": "truncalg/cw_complex",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "cells": {"type": "array", "items": {"type": "integer", "minimum": 0},
                  "description": "cell counts per dimension; at least one 0-cell"},
        "boundaries": {"type": "array",
                       "description": "boundaries[k] is the integer matrix from "
                                      "(k+1)-cells to k-cells, row-major; the "
                                      "complex is augmented (each 0-cell bounds "
                                      "one (-1)-cell), so the coefficients of each "
                                      "row of boundaries[0] must sum to zero, and "
                                      "boundary o boundary = 0 in every degree"}},
    "required": ["cells"],
}

job = {
    "$id": "truncalg/job",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "command": {"enum": ["snf", "decompose", "ext1", "split", "ss-report",
                             "ss-basechange", "bk-height", "bk-structure",
                             "cw-ktheory", "cw-verify", "lambda-survey",
                             "lambda-zero", "oracle"]},
        "input": {"type": "object", "description": "command-specific payload"},
        "options": {"type": ["object", "null"],
                    "description": "omitted or null for no options",
                    "properties": {"oracle": {"type": "boolean"}},
                    "additionalProperties": False}},
    "required": ["command", "input"],
    "exit_codes": {"0": "completed", "1": "schema/input error at a JSON-pointer location",
                   "2": "hypothesis gate unmet", "3": "precision-limited",
                   "4": "internal inconsistency (theorem-contradicting outcome) "
                        "or internal error (any other exception, named by type)"},
}

report = {
    "$id": "truncalg/report",
    "schema_version": SCHEMA_VERSION,
    "type": "object",
    "properties": {
        "version": {"type": "string"},
        "command": {"type": ["string", "null"],
                    "description": "null when the job names no command or "
                                   "is not a JSON object"},
        "job": {"description": "echo of the input job; null when the job "
                               "file could not be read as JSON"},
        "exit_code": {"type": "integer"},
        "verdicts": {"type": "object"},
        "witnesses": {"type": "object"},
        "ledgers": {"type": "object"},
        "precision_trail": {"type": "array"},
        "error": {"type": "string",
                  "description": "present when the job stopped without verdicts"},
        "error_kind": {"enum": ["schema", "hypothesis_gate", "precision_limited",
                                "internal_inconsistency", "internal_error"]},
        "timing_ms": {"description": "null unless --timing was passed, keeping "
                                     "default output byte-stable"}},
    "required": ["version", "command", "exit_code"],
}


# (name, document): main() writes each to docs/schemas/<name>.schema.json
DOCUMENTS = [("ring_spec", ring_spec), ("presented_module", presented_module),
             ("module_map", module_map), ("ses", ses),
             ("filtered_complex", filtered_complex),
             ("base_change_spec", base_change_spec), ("bk_module", bk_module),
             ("tower", tower), ("cw_complex", cw_complex),
             ("job", job), ("report", report)]


def main():
    os.makedirs(DOCS, exist_ok=True)
    for name, doc in DOCUMENTS:
        path = os.path.join(DOCS, f"{name}.schema.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote", os.path.relpath(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
