"""Few-shot classification with class-relevant representation refinement.

Prototype class representations are built from support embeddings; a
similarity map between each support feature map and its class prototype
localizes the class object; RoIAlign features from the proposed boxes
yield refined class representations and an auxiliary loss that sharpens
them.
"""

from .config import RunConfig, load_config_file, parse_config_text
from .dataset import (CorruptDataset, DatasetSpec, InsufficientData, Sample,
                      SplitData, generate_dataset, load_dataset,
                      render_sample, sample_episode)
from .encoder import (CacheMismatch, EncoderArch, EncoderParams,
                      backward_batch, forward_batch, init_params,
                      load_checkpoint, save_checkpoint, sgd_step)
from .episodic import (EmptyClass, Episode, LossConfig, NegativeLambda,
                       NonPositiveTemperature, distance_logit_loss,
                       episode_loss_and_gradient, nearest_class)
from .harness import (ArchMismatch, DeadEncoder, EvalReport, NonFiniteLoss,
                      SpecMismatch, UnknownId, evaluate, localize_cmd, pretrain,
                      report_emit, train_episodic)
from .kernels import ShapeError, bilinear_resize
from .localization import (BoundingBox, DegenerateRepresentation, iou,
                           largest_component, propose_box, propose_boxes,
                           segment_mask, similarity_map)
from .roi import RoiConfig, roi_feature
from .tns_io import read_tns, write_tns

__version__ = "0.1.0"
