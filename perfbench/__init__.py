"""End-to-end benchmark of the CuLDA_CGS reproduction (see README.md)."""
