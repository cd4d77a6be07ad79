"""The repository's end-to-end benchmark; see ``run.py`` and README.md."""
