"""Few-shot classification with class-relevant representation refinement.

Prototype class representations are built from support embeddings; a
similarity map between each support feature map and its class prototype
localizes the class object; RoIAlign features from the proposed boxes
yield refined class representations and an auxiliary loss that sharpens
them.

The package re-exports nothing: import each module by name (``from
protoloc import harness``), so a module loads only what it uses.
``protoloc.cli:main`` is the command-line entry point.
"""
