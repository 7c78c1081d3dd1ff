"""Policy-gradient training (PPO) of feed-forward and recurrent controllers."""

from .encoding import decode_state_observation, encode_state_observation
from .buffer import RolloutBuffer, compute_gae
from .config import PpoConfig
from .envs import ScenarioEnv
from .nets import MlpActorCritic, RecurrentActorCritic
from .ppo import ppo_update, train
from .checkpoint import load_policy, save_policy
