"""The repository's one end-to-end benchmark.

``python -m bench`` runs four workloads through the whole sweep stack
(service -> pool -> cache -> journal -> store -> report), reports five
gated end-to-end metrics per workload and, with ``--trace``, a per-layer
breakdown of the timed region. See ``bench/README.md``.
"""
