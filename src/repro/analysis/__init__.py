"""The analysis toolkit: the paper's experiments, the bench document and
the report that scores it, netstat, tail studies and forensics."""
