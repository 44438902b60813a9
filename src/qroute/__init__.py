"""qroute: learned orchestration of a registry of generation/editing
experts through masked Q-learning with a reflective critic loop."""

from .agent import (
    ReplayBuffer,
    Transition,
    epsilon_at,
    select_action,
    td_targets,
    train_batch,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, load_config
from .core import Atom, AtomicCommand, CanvasState, Prompt, TaskCategory
from .embedder import EMBED_DIM, HashingEmbedder, embed, serialize_reflection_state
from .environment import Environment, EnvState, shape_reward
from .evaluate import EvalReport, baseline_single_expert, build_report
from .experts import DEFAULT_EXPERT_PROFILES, ExpertRegistry, ExpertSpec, Modality, SkillProfile
from .network import AdamState, QNetwork
from .reflection import (
    CriticVerdict,
    apply_attempt_policy,
    classify_task,
    critic_score,
    extract_command,
)
from .simworld import best_expert, generate_corpus, generate_prompt, oracle_fraction
from .stats import wilcoxon_signed_rank, win_rate
from .train import TrainResult

__version__ = "0.1.0"
