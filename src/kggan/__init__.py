"""Knowledge-guided conditional GAN for unseen-category image generation.

A single weight-shared generator is trained with a category-dependent
loss: seen categories get the hinge adversarial objective plus a semantic
knowledge term, unseen categories the knowledge term alone. Everything
runs at desk scale on a procedurally generated flower dataset, with
per-category Frechet evaluation and a four-cell ablation harness.
Training returns its metric log as plain rows, one tuple per iteration,
whose columns ``gan.METRIC_COLUMNS`` names.

``autodiff.backward(loss, params)`` returns the gradients of a scalar
loss for exactly the params passed; tensors hold no gradient and no
flag, so nothing is reset between passes. A model is frozen, as the
embedding regressor is, when no optimizer holds its parameters.
"""
